package core

import (
	"sort"

	"unbundle/internal/keyspace"
)

// watcherIndex answers "which watchers cover key k?" in O(log S + matches)
// instead of scanning every watcher per event. It keeps the watched portion
// of the keyspace as sorted, disjoint segments, each carrying the id set of
// watchers covering it; watch ranges split segments at their boundaries, the
// way the hub's frontier map splits version segments.
//
// Ids are kept as small sorted slices, not maps: the per-event fanout
// iterates them on the append hot path, and ranging over a one-element map
// costs more than the rest of the lookup combined.
//
// Not safe for concurrent use; the hub's lock guards it.
type watcherIndex struct {
	segs []idxSegment
}

type idxSegment struct {
	r   keyspace.Range
	ids []int64 // sorted ascending
}

// withID returns ids plus id (ids is not mutated; the result may share no
// memory with it, since sibling segments alias the same backing slice).
func withID(ids []int64, id int64) []int64 {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	out := make([]int64, 0, len(ids)+1)
	out = append(out, ids[:i]...)
	out = append(out, id)
	return append(out, ids[i:]...)
}

// withoutID returns ids minus id (copying; see withID).
func withoutID(ids []int64, id int64) []int64 {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i == len(ids) || ids[i] != id {
		return ids
	}
	out := make([]int64, 0, len(ids)-1)
	out = append(out, ids[:i]...)
	return append(out, ids[i+1:]...)
}

func sameIDs(a, b []int64) bool {
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

// add registers id as covering r.
func (x *watcherIndex) add(id int64, r keyspace.Range) {
	if r.Empty() {
		return
	}
	out := make([]idxSegment, 0, len(x.segs)+2)
	uncovered := keyspace.NewRangeSet(r)
	for _, s := range x.segs {
		inter := s.r.Intersect(r)
		if inter.Empty() {
			out = append(out, s)
			continue
		}
		uncovered = uncovered.SubtractRange(s.r)
		for _, rest := range keyspace.NewRangeSet(s.r).SubtractRange(r).Ranges() {
			out = append(out, idxSegment{r: rest, ids: s.ids})
		}
		out = append(out, idxSegment{r: inter, ids: withID(s.ids, id)})
	}
	for _, rest := range uncovered.Ranges() {
		out = append(out, idxSegment{r: rest, ids: []int64{id}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].r.Low < out[j].r.Low })
	x.segs = out
}

// remove deregisters id from r (its original watch range).
func (x *watcherIndex) remove(id int64, r keyspace.Range) {
	if r.Empty() {
		return
	}
	out := x.segs[:0]
	for _, s := range x.segs {
		if s.r.Overlaps(r) {
			s.ids = withoutID(s.ids, id)
			if len(s.ids) == 0 {
				continue
			}
		}
		// Merge with the previous segment when the id sets are identical, so
		// boundaries left behind by removed watchers do not accumulate.
		if n := len(out); n > 0 && out[n-1].r.Adjacent(s.r) && sameIDs(out[n-1].ids, s.ids) {
			out[n-1].r = out[n-1].r.Union(s.r)
			continue
		}
		out = append(out, s)
	}
	x.segs = out
}

// lookup calls fn for every watcher id covering k.
func (x *watcherIndex) lookup(k keyspace.Key, fn func(id int64)) {
	i := sort.Search(len(x.segs), func(i int) bool {
		s := x.segs[i]
		return s.r.High >= keyspace.Inf || s.r.High > k
	})
	if i < len(x.segs) && x.segs[i].r.Contains(k) {
		for _, id := range x.segs[i].ids {
			fn(id)
		}
	}
}

// overlapping calls fn for every watcher id whose coverage overlaps r, once
// per overlapping segment: a watcher whose range was split across several
// segments is reported once for each, which suits an idempotent fn. Like
// lookup, the walk starts at the first overlapping segment by binary search
// and stops at the first segment past r, so cost scales with overlap, not
// index size.
func (x *watcherIndex) overlapping(r keyspace.Range, fn func(id int64)) {
	if r.Empty() {
		return
	}
	i := sort.Search(len(x.segs), func(i int) bool {
		s := x.segs[i]
		return s.r.High >= keyspace.Inf || s.r.High > r.Low
	})
	// Every segment from i on ends past r.Low, so it overlaps r exactly
	// when it starts before r.High.
	for ; i < len(x.segs) && (r.High >= keyspace.Inf || x.segs[i].r.Low < r.High); i++ {
		for _, id := range x.segs[i].ids {
			fn(id)
		}
	}
}

// size returns the segment count (for tests and stats).
func (x *watcherIndex) size() int { return len(x.segs) }
