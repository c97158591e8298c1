// Package experiments contains one driver per reproduced figure/claim of the
// paper; the registry is the one place the claims are stated, and
// WriteClaims prints them as the table in EXPERIMENTS.md. Each driver builds
// the systems it needs, runs the scenario, renders a paper-style result
// table, and returns machine-checkable assertions about the *shape* of the
// result (who wins, what is zero, what grows) — those assertions are what
// the integration tests and the claim-verification rest on. Drivers never
// write to stdout, which `unbundle-bench -json` keeps for one JSON document.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"unbundle/internal/metrics"
)

// Options tunes a run.
type Options struct {
	// Quick shrinks parameters so the whole suite runs in seconds (used by
	// `go test`); the full-size run is the default for cmd/unbundle-bench.
	Quick bool
	// Seed drives all randomness.
	Seed int64
}

// pick returns quick or full depending on the options.
func (o Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Check is one shape assertion about a claim.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Result is one experiment's outcome.
type Result struct {
	ID     string
	Title  string
	Anchor string // paper anchor (figure/section)
	Table  *metrics.Table
	Checks []Check
	Took   time.Duration
}

// Failed returns the failed checks.
func (r *Result) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Render writes the result (table + checks) to w.
func (r *Result) Render(w io.Writer) {
	r.Table.Render(w)
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check [%s] %s — %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  (%s, %v)\n\n", r.Anchor, r.Took.Round(time.Millisecond))
}

// Experiment is a registered driver.
type Experiment struct {
	ID     string
	Title  string
	Anchor string
	Run    func(Options) (*Result, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every experiment in numeric ID order (E1, E2, …, E10, E11).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	num := func(id string) int {
		n, err := strconv.Atoi(id[1:])
		if err != nil {
			return 1 << 30
		}
		return n
	}
	sort.Slice(out, func(i, j int) bool { return num(out[i].ID) < num(out[j].ID) })
	return out
}

// Get returns one experiment by ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// run wraps a driver body with timing and result assembly.
func run(e Experiment, opts Options, body func(*Result) error) (*Result, error) {
	start := time.Now()
	res := &Result{ID: e.ID, Title: e.Title, Anchor: e.Anchor}
	if err := body(res); err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	res.Took = time.Since(start)
	return res, nil
}

// check appends an assertion to the result.
func (r *Result) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// WriteClaims writes the claims table: one markdown row per result, with
// the registered title as the claim and the passed/total checks.
func WriteClaims(w io.Writer, results []*Result) {
	fmt.Fprintln(w, "| ID | Paper anchor | Claim | Checks |\n|---|---|---|---|")
	for _, r := range results {
		fmt.Fprintf(w, "| %s | %s | %s | %d/%d |\n", r.ID, r.Anchor, r.Title,
			len(r.Checks)-len(r.Failed()), len(r.Checks))
	}
}

// settleTimeout bounds every settle wait.
var settleTimeout = 5 * time.Second

// settle polls cond until it holds; past settleTimeout it returns an error
// naming what it waited for, so a wait that cannot succeed fails the run.
func settle(what string, cond func() bool) error {
	deadline := time.Now().Add(settleTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("timed out after %v waiting for %s", settleTimeout, what)
}
