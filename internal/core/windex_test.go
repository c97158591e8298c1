package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unbundle/internal/keyspace"
)

// TestQuickWatcherIndexMatchesNaive: under random add/remove traffic, index
// lookups agree with a naive scan over the live watch set.
func TestQuickWatcherIndexMatchesNaive(t *testing.T) {
	probe := []keyspace.Key{"", "a", "b", "c", "d", "e", "f", "g", "h", "zz"}
	letters := "abcdefgh"
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var x watcherIndex
		live := map[int64]keyspace.Range{}
		nextID := int64(0)
		for step := 0; step < 60; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				lo := letters[rng.Intn(len(letters))]
				hi := letters[rng.Intn(len(letters))]
				r := keyspace.Range{Low: keyspace.Key(lo), High: keyspace.Key(hi)}
				if rng.Intn(8) == 0 {
					r.High = keyspace.Inf
				}
				if r.Empty() {
					continue
				}
				x.add(nextID, r)
				live[nextID] = r
				nextID++
			} else {
				// Remove a random live watcher.
				for id, r := range live {
					x.remove(id, r)
					delete(live, id)
					break
				}
			}
			// Compare lookups against the naive model.
			for _, k := range probe {
				got := map[int64]bool{}
				x.lookup(k, func(id int64) { got[id] = true })
				want := map[int64]bool{}
				for id, r := range live {
					if r.Contains(k) {
						want[id] = true
					}
				}
				if len(got) != len(want) {
					return false
				}
				for id := range want {
					if !got[id] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWatcherIndexOverlappingMatchesNaive: the overlap walk reports
// exactly the watchers a naive overlap scan finds — each at least once, and
// no more often than its range was split into index segments.
func TestQuickWatcherIndexOverlappingMatchesNaive(t *testing.T) {
	letters := "abcdefgh"
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var x watcherIndex
		live := map[int64]keyspace.Range{}
		nextID := int64(0)
		randRange := func() keyspace.Range {
			r := keyspace.Range{
				Low:  keyspace.Key(letters[rng.Intn(len(letters))]),
				High: keyspace.Key(letters[rng.Intn(len(letters))]),
			}
			if rng.Intn(8) == 0 {
				r.High = keyspace.Inf
			}
			if rng.Intn(8) == 0 {
				r.Low = ""
			}
			return r
		}
		for step := 0; step < 60; step++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				r := randRange()
				if r.Empty() {
					continue
				}
				x.add(nextID, r)
				live[nextID] = r
				nextID++
			} else {
				for id, r := range live {
					x.remove(id, r)
					delete(live, id)
					break
				}
			}
			probe := randRange()
			got := map[int64]int{}
			x.overlapping(probe, func(id int64) { got[id]++ })
			want := map[int64]bool{}
			for id, r := range live {
				if !r.Intersect(probe).Empty() {
					want[id] = true
				}
			}
			if len(got) != len(want) {
				return false
			}
			for id := range want {
				if got[id] < 1 || got[id] > x.size() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestWatcherIndexSegmentsBounded: removing watchers merges segments back,
// so boundaries do not accumulate from departed watchers.
func TestWatcherIndexSegmentsBounded(t *testing.T) {
	var x watcherIndex
	// One long-lived watcher plus heavy churn.
	x.add(0, keyspace.Full())
	for i := int64(1); i <= 500; i++ {
		r := keyspace.NumericRange(int(i%100)*10, int(i%100)*10+10)
		x.add(i, r)
		x.remove(i, r)
	}
	if got := x.size(); got > 3 {
		t.Fatalf("segments after churn = %d, want <= 3", got)
	}
	// The survivor still works.
	found := false
	x.lookup(keyspace.NumericKey(555), func(id int64) { found = found || id == 0 })
	if !found {
		t.Fatal("long-lived watcher lost during churn")
	}
}
