// Command bench is the repository's one benchmark: it drives the real watch
// stack (mvcc store → core hub → remote server → loopback TCP → remote client
// → consumer callback) through its public functions on four named workloads
// and prints five end-to-end metrics and a per-layer table for each. See
// README.md in this directory for the definitions and BENCHMARK.json at the
// repository root for the contract.
//
//	go run ./bench                                    every workload, both passes
//	go run ./bench -workload fanout_tcp -trace=false  one workload, end-to-end only
//	go run ./bench -compare a.jsonl b.jsonl           compare two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// traceMode is the -trace flag. It is not a boolean flag to the flag package,
// so both "-trace=false" and the driver's "--trace 0" parse.
type traceMode int

const (
	traceBoth traceMode = iota // unset: end-to-end pass, then traced pass
	traceOff                   // end-to-end metrics only
	traceOn                    // per-layer metrics (short untraced pass, then traced pass)
)

func (m *traceMode) String() string { return [...]string{"both", "0", "1"}[*m] }

func (m *traceMode) Set(s string) error {
	on, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	*m = traceOff
	if on {
		*m = traceOn
	}
	return nil
}

// runRecord is one line of an -out file: the driver's result object plus what
// identifies the run, so that -compare can group lines.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// result is the exact object the benchmark driver reads from the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) String() string {
	b, _ := json.Marshal(r) // cannot fail: plain numbers and strings
	return string(b)
}

// verbose is the -v flag.
var verbose bool

func main() {
	// One P: on this 2-vCPU host the scheduler's placement of producer and
	// dispatchers made throughput bimodal at two; at one the numbers measure
	// the program. Must precede every constructor (the hub shards by it).
	runtime.GOMAXPROCS(1)

	var trace traceMode
	name := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 24, "measuring time of one pass over one workload, warm-ups included")
	flag.Var(&trace, "trace", "0: end-to-end metrics only; 1: per-layer metrics from the traced pass; unset: both")
	out := flag.String("out", "", "append one JSON line per result to this file")
	outDir := flag.String("outdir", "bench/out", "directory for span dumps")
	flag.BoolVar(&verbose, "v", false, "print every build-up and slice to standard error as it completes")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments: medians, quartiles, gap against the bound in BENCHMARK.json")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), os.Stdout))
	}
	if flag.NArg() != 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	ok := true
	for _, w := range todo {
		recs, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, trace, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		for _, r := range recs {
			ok = ok && r.Correct
			if *out != "" {
				if err := appendRecord(*out, r); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		// The driver reads the last line of standard output.
		for _, r := range recs {
			fmt.Println(r.result)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() (names []string) {
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload runs the passes mode asks for on one workload and prints their
// tables. It returns one record per metric set: end-to-end, per-layer, or
// both.
func runWorkload(w workload, seed int64, budget time.Duration, mode traceMode, outDir string) ([]runRecord, error) {
	var recs []runRecord
	// The end-to-end pass always runs untraced. With -trace 1 it is only the
	// baseline the tracing overhead is taken against, so it is half as long
	// and builds the stack once.
	buildUps, e2eBudget := 7, budget
	if mode == traceOn {
		buildUps, e2eBudget = 1, budget/2
	}
	h := newHarness(w, seed, false)
	e2e, err := h.pass(buildUps, e2eBudget)
	if err != nil {
		return nil, err
	}
	rec := runRecord{Workload: w.name, Seed: seed, result: result{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed}}
	if mode != traceOn {
		rec.Metrics = e2e.endToEnd()
		printTable(w.name+": end to end", rec)
		recs = append(recs, rec)
	}
	if mode == traceOff {
		return recs, nil
	}

	h = newHarness(w, seed, true)
	traced, err := h.pass(1, budget/2)
	if err != nil {
		return nil, err
	}
	if err := h.dumpSpans(outDir); err != nil {
		return nil, err
	}
	rec = runRecord{Workload: w.name, Seed: seed, Trace: 1, result: result{
		Correct:   rec.Correct && h.failed == 0,
		Attempted: rec.Attempted + h.attempted, Failed: rec.Failed + h.failed,
		Metrics: traced.perLayer(&e2e),
	}}
	printTable(w.name+": per layer (traced pass)", rec)
	return append(recs, rec), nil
}

func printTable(title string, r runRecord) {
	fmt.Printf("== %s (seed %d)\n", title, r.Seed)
	for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
		m := r.Metrics[name]
		fmt.Printf("  %-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  %-34s %16d\n  %-34s %16d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
}

func appendRecord(path string, r runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, _ := json.Marshal(r) // cannot fail: plain numbers and strings
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
