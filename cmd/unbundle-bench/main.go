// Command unbundle-bench regenerates the paper-reproduction experiment
// tables: for every figure and §3/§4 claim of "Understanding the
// limitations of pubsub systems" it runs the pubsub baseline and the watch
// counterpart, prints the measured comparison and its PASS/FAIL shape
// checks, and ends with the claims table EXPERIMENTS.md carries.
//
// Usage:
//
//	unbundle-bench                 # run everything at full scale
//	unbundle-bench -quick          # small parameters (seconds)
//	unbundle-bench -experiment E6  # a single experiment
//	unbundle-bench -list           # list experiments
//	unbundle-bench -json           # one JSON document on stdout (logs on stderr)
//	unbundle-bench -debug-addr :6060  # serve /metrics + pprof during the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"unbundle/internal/debugz"
	"unbundle/internal/experiments"
	"unbundle/internal/metrics"
)

// jsonResult is the machine-readable form of one experiment outcome.
type jsonResult struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Anchor string              `json:"anchor"`
	Table  *metrics.Table      `json:"table"`
	Checks []experiments.Check `json:"checks"`
	TookNs int64               `json:"took_ns"`
	Error  string              `json:"error,omitempty"`
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "run with reduced parameters")
		exp       = flag.String("experiment", "", "run a single experiment by ID (e.g. E6)")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Int64("seed", 1, "random seed")
		dumpMet   = flag.Bool("metrics", false, "dump the metrics registry after the run")
		jsonOut   = flag.Bool("json", false, "emit one JSON document on stdout; human output moves to stderr")
		debugAddr = flag.String("debug-addr", "", "serve the debug HTTP server on this address during the run (empty = off)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-28s %s\n", e.ID, e.Anchor, e.Title)
		}
		return
	}

	if *debugAddr != "" {
		dbg, err := debugz.Serve(*debugAddr, debugz.Config{Metrics: metrics.Default()})
		if err != nil {
			fmt.Fprintf(os.Stderr, "unbundle-bench: debug server: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s\n", dbg.Addr())
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	var toRun []experiments.Experiment
	if *exp != "" {
		e, ok := experiments.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(2)
		}
		toRun = []experiments.Experiment{e}
	} else {
		toRun = experiments.All()
	}

	failed := 0
	var results []jsonResult
	var claims []*experiments.Result
	for _, e := range toRun {
		if *jsonOut {
			fmt.Fprintf(os.Stderr, "running %s — %s\n", e.ID, e.Title)
		} else {
			fmt.Printf("### %s — %s (%s)\n", e.ID, e.Title, e.Anchor)
		}
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			if *jsonOut {
				results = append(results, jsonResult{ID: e.ID, Title: e.Title, Anchor: e.Anchor, Error: err.Error()})
			}
			continue
		}
		if *jsonOut {
			results = append(results, jsonResult{
				ID: res.ID, Title: res.Title, Anchor: res.Anchor,
				Table: res.Table, Checks: res.Checks, TookNs: int64(res.Took),
			})
		} else {
			res.Render(os.Stdout)
			claims = append(claims, res)
		}
		failed += len(res.Failed())
	}
	if *jsonOut {
		doc := struct {
			Results []jsonResult              `json:"results"`
			Failed  int                       `json:"failed_checks"`
			Metrics *metrics.RegistrySnapshot `json:"metrics,omitempty"`
		}{Results: results, Failed: failed}
		if *dumpMet {
			snap := metrics.Default().Snapshot()
			doc.Metrics = &snap
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "unbundle-bench: encode: %v\n", err)
			os.Exit(1)
		}
	} else {
		if *dumpMet {
			fmt.Println("### metrics")
			metrics.Default().WriteTo(os.Stdout)
		}
		fmt.Println("### claims")
		experiments.WriteClaims(os.Stdout, claims)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d check(s) failed\n", failed)
		os.Exit(1)
	}
}
