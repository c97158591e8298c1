package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// diffSink records what one watcher is delivered: its events and the
// frontier it has been told.
type diffSink struct {
	mu   sync.Mutex
	evs  []evID
	last map[keyspace.Key]Version
	told VersionMap
	err  string
}

func (s *diffSink) OnEvent(ev ChangeEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Version <= s.last[ev.Key] && s.err == "" {
		s.err = fmt.Sprintf("event %q@%v after @%v", ev.Key, ev.Version, s.last[ev.Key])
	}
	s.last[ev.Key] = ev.Version
	s.evs = append(s.evs, evID{ev.Key, ev.Version})
}

func (s *diffSink) OnProgress(p ProgressEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.told.Raise(p.Range, p.Version)
}

func (s *diffSink) OnResync(rs ResyncEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.err = "resync: " + rs.Reason
}

// state returns the sink's events in key-then-version order, the frontier
// it was told, and its first contract violation.
func (s *diffSink) state() ([]evID, string, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedIDs(slices.Clone(s.evs)), s.told.String(), s.err
}

func sortedIDs(ids []evID) []evID {
	slices.SortFunc(ids, func(a, b evID) int {
		if c := strings.Compare(string(a.key), string(b.key)); c != 0 {
			return c
		}
		return int(a.ver) - int(b.ver)
	})
	return ids
}

// caughtUp reports whether the sink holds n events and has been told at
// least v over r.
func (s *diffSink) caughtUp(n int, r keyspace.Range, v Version) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evs) >= n && (r.Empty() || s.told.MinOver(r) >= v)
}

// TestAppendCommitMatchesTwoCalls feeds the same seeded commits to two sets
// of hubs, one as AppendBatch then Progress and one as AppendCommit, and
// checks after every commit that each watcher of one set holds the same
// events, in the same per-key order, and has been told the same frontier as
// its twin in the other, and that both hold what the commits put in their
// range. A commit here spans two versions, each rewriting a few consecutive
// keys of one place, so the fan-out walk forms multi-event, multi-version
// runs; its claim is the whole keyspace or a random slice.
// Each set is scaled out as a sharder scales it: at shards=N the keyspace
// splits evenly into N ranges, each owned by one hub of the set, and every
// hub is fed only the part of each commit, events and claim, that falls in
// its range. The watches, registered at every hub, are a reader (the
// full-range watch) and three ring watchers, one of them from a version
// inside one commit, whose from filters part of that commit's run on both
// paths; at four hubs two of the ring watches span several owners.
func TestAppendCommitMatchesTwoCalls(t *testing.T) {
	const cut = 31 // odd: a commit of versions 31 and 32 straddles it
	watches := []struct {
		r    keyspace.Range
		from Version
	}{
		{keyspace.NumericRange(100, 300), NoVersion},
		{keyspace.Full(), NoVersion},
		{keyspace.NumericRange(500, 2500), NoVersion},
		{keyspace.NumericRange(0, 4000), cut},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			owned := keyspace.EvenSplit(4000, shards)
			var hubs [2][]*Hub
			var sinks [2][][]*diffSink // [set][owner][watch]
			for i := range hubs {
				for range owned {
					h := NewHub(HubConfig{Metrics: metrics.NewRegistry()})
					defer h.Close()
					var ss []*diffSink
					for _, w := range watches {
						s := &diffSink{last: map[keyspace.Key]Version{}}
						cancel, err := h.Watch(w.r, w.from, s)
						if err != nil {
							t.Fatal(err)
						}
						defer cancel()
						ss = append(ss, s)
					}
					hubs[i] = append(hubs[i], h)
					sinks[i] = append(sinks[i], ss)
				}
			}
			rng := rand.New(rand.NewSource(int64(shards)))
			want := make([][][]evID, len(owned)) // what each watch at each owner must hold
			for o := range want {
				want[o] = make([][]evID, len(watches))
			}
			var v Version
			straddled := 0
			for commit := 0; commit < 60; commit++ {
				var batch []ChangeEvent
				base := rng.Intn(3990)
				for k := 0; k < 2; k++ {
					v++
					for n := 1 + rng.Intn(6); n > 0; n-- {
						batch = append(batch, ChangeEvent{Key: keyspace.NumericKey(base + n), Mut: Mutation{Op: OpPut}, Version: v})
					}
				}
				if batch[0].Version <= cut && v > cut {
					straddled++
				}
				p := ProgressEvent{Range: keyspace.Full(), Version: v}
				if rng.Intn(3) == 0 {
					a, b := rng.Intn(4000), rng.Intn(4000)
					p.Range = keyspace.NumericRange(min(a, b), max(a, b)+1)
				}
				for o, or := range owned {
					var part []ChangeEvent
					for _, ev := range batch {
						if or.Contains(ev.Key) {
							part = append(part, ev)
						}
					}
					op := ProgressEvent{Range: p.Range.Intersect(or), Version: v}
					for j, w := range watches {
						for _, ev := range part {
							if w.r.Contains(ev.Key) && ev.Version > w.from {
								want[o][j] = append(want[o][j], evID{ev.Key, ev.Version})
							}
						}
					}
					if err := hubs[0][o].AppendBatch(part); err != nil {
						t.Fatal(err)
					}
					if err := hubs[0][o].Progress(op); err != nil {
						t.Fatal(err)
					}
					if err := hubs[1][o].AppendCommit(part, op); err != nil {
						t.Fatal(err)
					}
					for j, w := range watches {
						claim := w.r.Intersect(op.Range)
						for i := range hubs {
							s := sinks[i][o][j]
							waitUntil(t, fmt.Sprintf("commit %d, watch %v on set %d, owner %v", commit, w.r, i, or), func() bool {
								return s.caughtUp(len(want[o][j]), claim, v)
							})
						}
						evsA, toldA, errA := sinks[0][o][j].state()
						evsB, toldB, errB := sinks[1][o][j].state()
						switch {
						case errA != "" || errB != "":
							t.Fatalf("commit %d, watch %v, owner %v: two calls: %q, one call: %q", commit, w.r, or, errA, errB)
						case !slices.Equal(evsA, evsB):
							t.Fatalf("commit %d, watch %v, owner %v: two calls delivered %v, one call %v", commit, w.r, or, evsA, evsB)
						case !slices.Equal(evsA, sortedIDs(want[o][j])):
							t.Fatalf("commit %d, watch %v, owner %v: delivered %v, want %v", commit, w.r, or, evsA, want[o][j])
						case toldA != toldB:
							t.Fatalf("commit %d, watch %v, owner %v: two calls told %s, one call %s", commit, w.r, or, toldA, toldB)
						}
					}
				}
			}
			if straddled == 0 {
				t.Fatalf("no commit spans versions on both sides of v%d", cut)
			}
		})
	}
}
