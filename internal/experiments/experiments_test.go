package experiments

import (
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsQuick runs every registered experiment at quick scale
// and requires every shape assertion to hold — this is the reproduction's
// claim-by-claim verification.
func TestAllExperimentsQuick(t *testing.T) {
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("registered %d experiments, want 15", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res, err := e.Run(Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Table == nil {
				t.Fatal("no result table")
			}
			var sb strings.Builder
			res.Render(&sb)
			t.Log("\n" + sb.String())
			for _, c := range res.Failed() {
				t.Errorf("check failed: %s — %s", c.Name, c.Detail)
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if _, ok := Get("E6"); !ok {
		t.Fatal("E6 missing")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("phantom experiment")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		ids[e.ID] = true
		if e.Anchor == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestResultRender(t *testing.T) {
	e, _ := Get("E1")
	res, err := e.Run(Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"E1", "check [", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	_ = io.Discard
}

// TestClaimsTableMatchesRegistry fails when EXPERIMENTS.md's claims table
// drifts from the registry: the same rows in the same order, with the same
// ID, anchor and claim. Regenerate the table with `go run ./cmd/unbundle-bench`.
func TestClaimsTableMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var registered []*Result
	for _, e := range All() {
		registered = append(registered, &Result{ID: e.ID, Title: e.Title, Anchor: e.Anchor})
	}
	var sb strings.Builder
	WriteClaims(&sb, registered)
	want, got := claimCells(sb.String()), claimCells(string(doc))
	if !slices.Equal(got, want) {
		t.Fatalf("EXPERIMENTS.md claims table drifted from the registry:\n got %q\nwant %q", got, want)
	}
}

var claimRow = regexp.MustCompile(`^\| E\d+ \|`)

// claimCells returns the ID, anchor and claim cells of every claims-table
// row in s, one string per row.
func claimCells(s string) []string {
	var rows []string
	for _, line := range strings.Split(s, "\n") {
		if claimRow.MatchString(line) {
			rows = append(rows, line[:strings.LastIndex(line, " | ")])
		}
	}
	return rows
}

func TestSettleReportsTimeout(t *testing.T) {
	defer func(d time.Duration) { settleTimeout = d }(settleTimeout)
	settleTimeout = 10 * time.Millisecond
	if err := settle("a condition that holds", func() bool { return true }); err != nil {
		t.Fatal(err)
	}
	err := settle("the router to catch up", func() bool { return false })
	if err == nil || !strings.Contains(err.Error(), "waiting for the router to catch up") {
		t.Fatalf("settle = %v, want a timeout naming what it waited for", err)
	}
}
