package experiments

import (
	"io"
	"strings"
	"testing"
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
