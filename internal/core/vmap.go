package core

import (
	"fmt"
	"strings"

	"unbundle/internal/keyspace"
)

// RangeVersion is one segment of a VersionMap: every key in Range carries
// Version.
type RangeVersion struct {
	Range   keyspace.Range
	Version Version
}

// VersionMap is an interval map from keys to versions, the data structure
// behind range-scoped progress (§4.2.2): the hub's frontier is a VersionMap
// recording, for every key, the highest version through which the event
// stream is known complete. Keys not covered by any segment implicitly carry
// NoVersion.
//
// VersionMap is not safe for concurrent use; owners guard it with their own
// lock. The zero value is an empty map.
type VersionMap struct {
	segs  []RangeVersion // sorted by Range.Low, disjoint, version > NoVersion
	spare []RangeVersion // Raise builds the next segs here, then swaps the two
}

// Raise sets the version over r to max(current, v) pointwise. Raising to
// NoVersion is a no-op. Progress can legitimately arrive out of order or
// overlap (each layer partitions independently), so Raise never lowers.
//
// It is one pass over the segments in key order, emitting into the spare
// buffer: rest is the part of the claim not yet emitted, and each segment is
// either wholly before it, wholly after it (the claim's remainder goes first)
// or overlaps it and is cut at the claim's bounds. Once both buffers have
// grown, a raise allocates nothing.
func (m *VersionMap) Raise(r keyspace.Range, v Version) {
	if r.Empty() || v == NoVersion {
		return
	}
	out, rest := m.spare[:0], r
	for _, s := range m.segs {
		inter := s.Range.Intersect(rest)
		if inter.Empty() {
			if !rest.Empty() && rest.Low < s.Range.Low {
				out = appendSegment(out, rest, v)
				rest = keyspace.Range{}
			}
			out = appendSegment(out, s.Range, s.Version)
			continue
		}
		// What precedes the overlap is s's own (it starts first) or an
		// uncovered piece of the claim.
		if s.Range.Low < inter.Low {
			out = appendSegment(out, keyspace.Range{Low: s.Range.Low, High: inter.Low}, s.Version)
		} else if rest.Low < inter.Low {
			out = appendSegment(out, keyspace.Range{Low: rest.Low, High: inter.Low}, v)
		}
		out = appendSegment(out, inter, max(s.Version, v))
		// The overlap ends where s or the claim ends; the other may go on.
		if inter.High >= keyspace.Inf {
			rest = keyspace.Range{}
			continue
		}
		if after := (keyspace.Range{Low: inter.High, High: s.Range.High}); !after.Empty() {
			out = appendSegment(out, after, s.Version)
		}
		rest.Low = inter.High
	}
	if !rest.Empty() {
		out = appendSegment(out, rest, v)
	}
	m.segs, m.spare = out, m.segs[:0]
}

// appendSegment appends r@v to segs, which is in key order and ends at or
// before r, merging it into the last segment when the two touch at one
// version.
func appendSegment(segs []RangeVersion, r keyspace.Range, v Version) []RangeVersion {
	if n := len(segs); n > 0 && segs[n-1].Version == v && segs[n-1].Range.High == r.Low {
		segs[n-1].Range.High = r.High
		return segs
	}
	return append(segs, RangeVersion{Range: r, Version: v})
}

// VersionAt returns the version covering key k (NoVersion if uncovered).
func (m *VersionMap) VersionAt(k keyspace.Key) Version {
	for _, s := range m.segs {
		if s.Range.Contains(k) {
			return s.Version
		}
		if s.Range.Low > k {
			break
		}
	}
	return NoVersion
}

// MinOver returns the minimum version over every key of r: the version
// through which knowledge of r is complete. Any uncovered gap yields
// NoVersion. This is the query a watcher's progress tracker answers: "up to
// what version do I know everything about this range?"
func (m *VersionMap) MinOver(r keyspace.Range) Version {
	if r.Empty() {
		return NoVersion
	}
	// next is the first key of r not yet seen covered; the segments are in
	// key order, so the first one to start past it leaves a gap.
	next, min := r.Low, Version(^uint64(0))
	for _, s := range m.segs {
		inter := s.Range.Intersect(r)
		if inter.Empty() {
			continue
		}
		if inter.Low > next {
			return NoVersion
		}
		if s.Version < min {
			min = s.Version
		}
		if inter.High == r.High || inter.High >= keyspace.Inf {
			return min
		}
		next = inter.High
	}
	return NoVersion
}

// MaxOver returns the maximum version over keys of r (NoVersion if none).
func (m *VersionMap) MaxOver(r keyspace.Range) Version {
	var max Version
	for _, s := range m.segs {
		if !s.Range.Overlaps(r) {
			continue
		}
		if s.Version > max {
			max = s.Version
		}
	}
	return max
}

// CoversAtLeast reports whether every key of r carries version >= v.
func (m *VersionMap) CoversAtLeast(r keyspace.Range, v Version) bool {
	return m.MinOver(r) >= v && !r.Empty()
}

// Segments returns the normalized segments in key order. The caller must not
// modify the returned slice, which the next Raise may overwrite.
func (m *VersionMap) Segments() []RangeVersion { return m.segs }

// Clone returns an independent copy.
func (m *VersionMap) Clone() *VersionMap {
	out := &VersionMap{segs: make([]RangeVersion, len(m.segs))}
	copy(out.segs, m.segs)
	return out
}

// String renders the map for logs and test failures.
func (m *VersionMap) String() string {
	if len(m.segs) == 0 {
		return "frontier{}"
	}
	parts := make([]string, len(m.segs))
	for i, s := range m.segs {
		parts[i] = fmt.Sprintf("%v@%v", s.Range, s.Version)
	}
	return "frontier{" + strings.Join(parts, " ") + "}"
}
