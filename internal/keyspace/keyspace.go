// Package keyspace defines the key and key-range vocabulary shared by every
// layer of the system: the MVCC store, the pubsub partitioners, the
// auto-sharder and the watch system.
//
// Keys are ordered byte strings. Ranges are half-open intervals [Low, High);
// a High of "" denotes +infinity, so Range{"", ""} covers the whole keyspace.
// This is the same convention used by etcd and by range-sharded systems such
// as Slicer, and it is what makes range-scoped progress events (the paper's
// central scalability mechanism) composable: ranges can be split, merged and
// compared without any out-of-band metadata.
package keyspace

import (
	"fmt"
	"sort"
	"strings"
)

// Key is an ordered byte-string key. The zero value is the minimum key.
type Key string

// Compare returns -1, 0 or +1 comparing k to other lexicographically.
func (k Key) Compare(other Key) int {
	switch {
	case k < other:
		return -1
	case k > other:
		return 1
	default:
		return 0
	}
}

// Next returns the immediate successor of k in the key order: the smallest
// key strictly greater than k. It is used to build single-key ranges.
func (k Key) Next() Key {
	return k + "\x00"
}

// Range is a half-open key interval [Low, High). High == "" means +infinity.
// The zero Range is empty (["" , "")); use Full() for the whole keyspace.
type Range struct {
	Low  Key
	High Key
}

// Full returns the range covering the entire keyspace.
func Full() Range {
	return Range{Low: "", High: Inf}
}

// Inf is the sentinel High bound meaning +infinity.
//
// An empty string is a valid Low (the minimum key) but can never be a
// meaningful exclusive High, so "" is reserved for the zero/empty range and
// Inf marks unbounded ranges explicitly.
const Inf Key = "\xff\xff\xff\xff\xff\xff\xff\xff"

// Point returns the range containing exactly key k.
func Point(k Key) Range {
	return Range{Low: k, High: k.Next()}
}

// Prefix returns the range of all keys having prefix p.
func Prefix(p Key) Range {
	if p == "" {
		return Full()
	}
	return Range{Low: p, High: prefixEnd(p)}
}

// prefixEnd computes the smallest key greater than every key with prefix p.
func prefixEnd(p Key) Key {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return Key(b[:i+1])
		}
	}
	return Inf // p is all 0xff bytes: no upper bound below infinity.
}

// unbounded reports whether the High bound means +infinity. The equality
// test is one inlined compare against a constant; only a High starting with
// 0xff, which could still sort at or above Inf, pays the ordered compare.
func (r Range) unbounded() bool {
	return r.High == Inf || (len(r.High) > 0 && r.High[0] == 0xff && r.High > Inf)
}

// Empty reports whether the range contains no keys.
func (r Range) Empty() bool {
	if r.unbounded() {
		return false
	}
	return r.Low >= r.High
}

// Contains reports whether k lies inside the range.
func (r Range) Contains(k Key) bool {
	if r.Empty() {
		return false
	}
	if k < r.Low {
		return false
	}
	return r.unbounded() || k < r.High
}

// ContainsRange reports whether other is entirely inside r.
func (r Range) ContainsRange(other Range) bool {
	if other.Empty() {
		return true
	}
	if r.Empty() {
		return false
	}
	if other.Low < r.Low {
		return false
	}
	if r.unbounded() {
		return true
	}
	if other.unbounded() {
		return false
	}
	return other.High <= r.High
}

// Overlaps reports whether the two ranges share at least one key.
func (r Range) Overlaps(other Range) bool {
	return !r.Intersect(other).Empty()
}

// Intersect returns the intersection of the two ranges (possibly empty).
func (r Range) Intersect(other Range) Range {
	if r.Empty() || other.Empty() {
		return Range{}
	}
	low := r.Low
	if other.Low > low {
		low = other.Low
	}
	high := r.High
	if other.High < high {
		high = other.High
	}
	out := Range{Low: low, High: high}
	if out.Empty() {
		return Range{}
	}
	return out
}

// Adjacent reports whether the two ranges touch without overlapping,
// i.e. one ends exactly where the other begins.
func (r Range) Adjacent(other Range) bool {
	if r.Empty() || other.Empty() {
		return false
	}
	return (!r.unbounded() && r.High == other.Low) ||
		(!other.unbounded() && other.High == r.Low)
}

// Union returns the smallest single range covering both r and other.
// It is only a true set union when the ranges overlap or are adjacent;
// callers that need exact unions should use RangeSet.
func (r Range) Union(other Range) Range {
	if r.Empty() {
		return other
	}
	if other.Empty() {
		return r
	}
	low := r.Low
	if other.Low < low {
		low = other.Low
	}
	high := r.High
	if other.High > high {
		high = other.High
	}
	return Range{Low: low, High: high}
}

// Split divides the range at key mid, returning [Low, mid) and [mid, High).
// It panics if mid is not strictly inside the range, since splitting at a
// boundary would silently produce an empty shard — a bug in every caller.
func (r Range) Split(mid Key) (left, right Range) {
	if !r.Contains(mid) || mid == r.Low {
		panic(fmt.Sprintf("keyspace: split point %q not interior to %v", string(mid), r))
	}
	return Range{Low: r.Low, High: mid}, Range{Low: mid, High: r.High}
}

// String renders the range in [low, high) form for logs and test output.
func (r Range) String() string {
	if r.Empty() {
		return "[)"
	}
	if r.unbounded() {
		return fmt.Sprintf("[%q, +inf)", string(r.Low))
	}
	return fmt.Sprintf("[%q, %q)", string(r.Low), string(r.High))
}

// RangeSet is an immutable, normalized set of keys represented as sorted,
// non-overlapping, non-adjacent ranges. The zero value is the empty set.
//
// RangeSet is the working currency of the watch frontier, the sharder's
// assignment table and knowledge regions, so its operations must be exact:
// Union/Subtract/Intersect are true set operations, unlike Range.Union.
type RangeSet struct {
	ranges []Range // sorted by Low, pairwise disjoint and non-adjacent
}

// NewRangeSet builds a normalized set from arbitrary (possibly overlapping,
// unordered, empty) ranges in O(n log n): sort by Low, then merge in one
// pass. (Add is O(n) per call; constructing large sets through it would be
// quadratic.)
func NewRangeSet(ranges ...Range) RangeSet {
	rs := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if !r.Empty() {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Low < rs[j].Low })
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && (out[n-1].Overlaps(r) || out[n-1].Adjacent(r)) {
			out[n-1] = out[n-1].Union(r)
			continue
		}
		out = append(out, r)
	}
	return RangeSet{ranges: out}
}

// Ranges returns the normalized ranges in order. The slice must not be
// modified by the caller.
func (s RangeSet) Ranges() []Range { return s.ranges }

// Empty reports whether the set contains no keys.
func (s RangeSet) Empty() bool { return len(s.ranges) == 0 }

// Len returns the number of normalized ranges in the set.
func (s RangeSet) Len() int { return len(s.ranges) }

// Contains reports whether k is a member of the set.
func (s RangeSet) Contains(k Key) bool {
	// Binary search for the first range with High > k (or unbounded).
	i := sort.Search(len(s.ranges), func(i int) bool {
		r := s.ranges[i]
		return r.unbounded() || r.High > k
	})
	return i < len(s.ranges) && s.ranges[i].Contains(k)
}

// ContainsRange reports whether every key of r is a member of the set.
// Because the set is normalized (no adjacent ranges), r must fit in a single
// stored range.
func (s RangeSet) ContainsRange(r Range) bool {
	if r.Empty() {
		return true
	}
	for _, have := range s.ranges {
		if have.ContainsRange(r) {
			return true
		}
	}
	return false
}

// Add returns the set with r added (a true union with one range).
func (s RangeSet) Add(r Range) RangeSet {
	if r.Empty() {
		return s
	}
	out := make([]Range, 0, len(s.ranges)+1)
	merged := r
	for _, have := range s.ranges {
		if have.Overlaps(merged) || have.Adjacent(merged) {
			merged = merged.Union(have)
		} else {
			out = append(out, have)
		}
	}
	out = append(out, merged)
	sort.Slice(out, func(i, j int) bool { return out[i].Low < out[j].Low })
	return RangeSet{ranges: out}
}

// Union returns the exact set union of s and other.
func (s RangeSet) Union(other RangeSet) RangeSet {
	out := s
	for _, r := range other.ranges {
		out = out.Add(r)
	}
	return out
}

// Intersect returns the exact set intersection of s and other.
func (s RangeSet) Intersect(other RangeSet) RangeSet {
	var out []Range
	for _, a := range s.ranges {
		for _, b := range other.ranges {
			if x := a.Intersect(b); !x.Empty() {
				out = append(out, x)
			}
		}
	}
	return RangeSet{ranges: out} // disjoint inputs produce disjoint outputs, already sorted per a
}

// IntersectRange returns the subset of s inside r.
func (s RangeSet) IntersectRange(r Range) RangeSet {
	return s.Intersect(NewRangeSet(r))
}

// Subtract returns the set difference s \ other.
func (s RangeSet) Subtract(other RangeSet) RangeSet {
	cur := s.ranges
	for _, b := range other.ranges {
		var next []Range
		for _, a := range cur {
			next = append(next, subtractRange(a, b)...)
		}
		cur = next
	}
	return RangeSet{ranges: cur}
}

// SubtractRange returns the set difference s \ r.
func (s RangeSet) SubtractRange(r Range) RangeSet {
	return s.Subtract(NewRangeSet(r))
}

// subtractRange returns a \ b as zero, one or two ranges.
func subtractRange(a, b Range) []Range {
	x := a.Intersect(b)
	if x.Empty() {
		return []Range{a}
	}
	var out []Range
	if a.Low < x.Low {
		out = append(out, Range{Low: a.Low, High: x.Low})
	}
	if !x.unbounded() && (a.unbounded() || x.High < a.High) {
		out = append(out, Range{Low: x.High, High: a.High})
	}
	return out
}

// Equal reports whether the two sets contain exactly the same keys.
func (s RangeSet) Equal(other RangeSet) bool {
	if len(s.ranges) != len(other.ranges) {
		return false
	}
	for i, r := range s.ranges {
		o := other.ranges[i]
		if r.Low != o.Low {
			return false
		}
		if r.unbounded() != o.unbounded() {
			return false
		}
		if !r.unbounded() && r.High != o.High {
			return false
		}
	}
	return true
}

// Covers reports whether the set contains every key of other.
func (s RangeSet) Covers(other RangeSet) bool {
	return other.Subtract(s).Empty()
}

// String renders the set as a list of ranges.
func (s RangeSet) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.ranges))
	for i, r := range s.ranges {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
