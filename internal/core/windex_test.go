package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"unbundle/internal/keyspace"
)

// TestQuickWatcherIndexMatchesNaive: under random add/remove traffic, the
// interval find holds a key and lists exactly the watchers a naive scan over
// the live watch set finds covering it.
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
				x.add(&hubWatcher{id: nextID}, r)
				live[nextID] = r
				nextID++
			} else {
				// Remove a random live watcher.
				for id, r := range live {
					x.remove(watcherIn(&x, id), r)
					delete(live, id)
					break
				}
			}
			// Compare finds against the naive model.
			for _, k := range probe {
				at := x.find(k)
				if !x.holds(at, k) {
					return false
				}
				got := map[int64]bool{}
				for _, w := range x.ws[at] {
					got[w.id] = true
				}
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

// TestQuickWatcherIndexOverlappingMatchesNaive: the intervals a span returns list
// exactly the watchers a naive overlap scan finds — each at least once, and
// no more often than there are intervals.
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
				x.add(&hubWatcher{id: nextID}, r)
				live[nextID] = r
				nextID++
			} else {
				for id, r := range live {
					x.remove(watcherIn(&x, id), r)
					delete(live, id)
					break
				}
			}
			probe := randRange()
			got := map[int64]int{}
			i, j := x.span(probe)
			for _, list := range x.ws[i:j] {
				for _, w := range list {
					got[w.id]++
				}
			}
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

// watcherIn returns the indexed watcher with the given id, or nil.
func watcherIn(x *watcherIndex, id int64) *hubWatcher {
	for _, list := range x.ws {
		for _, w := range list {
			if w.id == id {
				return w
			}
		}
	}
	return nil
}

// TestWatcherIndexSegmentsBounded: removing watchers merges intervals back,
// so boundaries do not accumulate from departed watchers.
func TestWatcherIndexSegmentsBounded(t *testing.T) {
	var x watcherIndex
	// One long-lived watcher plus heavy churn.
	survivor := &hubWatcher{id: 0}
	x.add(survivor, keyspace.Full())
	for i := int64(1); i <= 500; i++ {
		r := keyspace.NumericRange(int(i%100)*10, int(i%100)*10+10)
		w := &hubWatcher{id: i}
		x.add(w, r)
		x.remove(w, r)
	}
	if got := x.size(); got > 3 {
		t.Fatalf("intervals after churn = %d, want <= 3", got)
	}
	// The survivor still works.
	found := false
	for _, w := range x.ws[x.find(keyspace.NumericKey(555))] {
		found = found || w == survivor
	}
	if !found {
		t.Fatal("long-lived watcher lost during churn")
	}
}
