package core

import (
	"slices"
	"sort"

	"unbundle/internal/keyspace"
)

// watcherIndex answers "which ring watchers cover key k?" for the fan-out
// walk. It partitions the keyspace into intervals at every watch boundary:
// lows holds their lower bounds, ascending from "", and ws[i] the watchers
// covering [lows[i], lows[i+1]) — nil for a gap no watcher covers. Append is
// hot and Watch, cancel and lag-out are rare, so the flat arrays are rebuilt
// on every registration change and the walk reads them with no map lookup
// and no callback.
//
// A watcher list is copy-on-write, sorted by id: add and remove replace it,
// never edit it, so a list read before a lag-out stays valid after it.
//
// Not safe for concurrent use; the hub's lock guards it.
type watcherIndex struct {
	lows []keyspace.Key
	ws   [][]*hubWatcher
}

// withWatcher returns ws plus w (ws is not mutated; neighbouring intervals
// may share its backing array).
func withWatcher(ws []*hubWatcher, w *hubWatcher) []*hubWatcher {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].id >= w.id })
	if i < len(ws) && ws[i] == w {
		return ws
	}
	out := make([]*hubWatcher, 0, len(ws)+1)
	out = append(out, ws[:i]...)
	out = append(out, w)
	return append(out, ws[i:]...)
}

// withoutWatcher returns ws minus w (copying; see withWatcher).
func withoutWatcher(ws []*hubWatcher, w *hubWatcher) []*hubWatcher {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].id >= w.id })
	if i == len(ws) || ws[i] != w {
		return ws
	}
	if len(ws) == 1 {
		return nil
	}
	out := make([]*hubWatcher, 0, len(ws)-1)
	out = append(out, ws[:i]...)
	return append(out, ws[i+1:]...)
}

func sameWatchers(a, b []*hubWatcher) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// find returns the interval holding k, or -1 while the index is empty.
func (x *watcherIndex) find(k keyspace.Key) int {
	lo, hi := 0, len(x.lows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x.lows[m] <= k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// holds reports whether interval i holds k.
func (x *watcherIndex) holds(i int, k keyspace.Key) bool {
	return x.lows[i] <= k && (i+1 == len(x.lows) || k < x.lows[i+1])
}

// split makes k an interval boundary.
func (x *watcherIndex) split(k keyspace.Key) {
	if k >= keyspace.Inf {
		return
	}
	i := x.find(k)
	if x.lows[i] == k {
		return
	}
	x.lows = slices.Insert(x.lows, i+1, k)
	x.ws = slices.Insert(x.ws, i+1, x.ws[i])
}

// span returns the intervals [i, j) overlapping r.
func (x *watcherIndex) span(r keyspace.Range) (int, int) {
	if r.Empty() || len(x.lows) == 0 {
		return 0, 0
	}
	i := x.find(r.Low)
	j := i + 1
	for j < len(x.lows) && (r.High >= keyspace.Inf || x.lows[j] < r.High) {
		j++
	}
	return i, j
}

// add registers w as covering r.
func (x *watcherIndex) add(w *hubWatcher, r keyspace.Range) {
	if r.Empty() {
		return
	}
	if len(x.lows) == 0 {
		x.lows, x.ws = []keyspace.Key{""}, [][]*hubWatcher{nil}
	}
	x.split(r.Low)
	x.split(r.High)
	i, j := x.span(r)
	for ; i < j; i++ {
		x.ws[i] = withWatcher(x.ws[i], w)
	}
}

// remove deregisters w from r (its registered range), then merges
// neighbouring intervals whose lists are now the same, so boundaries left
// behind by departed watchers do not accumulate.
func (x *watcherIndex) remove(w *hubWatcher, r keyspace.Range) {
	i, j := x.span(r)
	for ; i < j; i++ {
		x.ws[i] = withoutWatcher(x.ws[i], w)
	}
	n := 0
	for k := range x.lows {
		if n > 0 && sameWatchers(x.ws[n-1], x.ws[k]) {
			continue
		}
		x.lows[n], x.ws[n] = x.lows[k], x.ws[k]
		n++
	}
	clear(x.ws[n:])
	x.lows, x.ws = x.lows[:n], x.ws[:n]
}

// size returns the interval count (for tests).
func (x *watcherIndex) size() int { return len(x.lows) }
