package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"unbundle/internal/keyspace"
)

func rng(lo, hi string) keyspace.Range {
	h := keyspace.Key(hi)
	if hi == "inf" {
		h = keyspace.Inf
	}
	return keyspace.Range{Low: keyspace.Key(lo), High: h}
}

func TestVersionMapRaiseAndQuery(t *testing.T) {
	var m VersionMap
	if got := m.VersionAt("a"); got != NoVersion {
		t.Fatalf("empty map VersionAt = %v", got)
	}
	m.Raise(rng("a", "m"), 10)
	m.Raise(rng("f", "z"), 5) // lower: must not lower existing coverage

	tests := []struct {
		k    keyspace.Key
		want Version
	}{
		{"a", 10}, {"e", 10}, {"f", 10}, {"l", 10},
		{"m", 5}, {"y", 5}, {"z", NoVersion},
	}
	for _, tt := range tests {
		if got := m.VersionAt(tt.k); got != tt.want {
			t.Errorf("VersionAt(%q) = %v, want %v", string(tt.k), got, tt.want)
		}
	}
	m.Raise(rng("c", "g"), 20)
	if got := m.VersionAt("d"); got != 20 {
		t.Errorf("after second raise VersionAt(d) = %v", got)
	}
	if got := m.VersionAt("b"); got != 10 {
		t.Errorf("neighbouring segment disturbed: VersionAt(b) = %v", got)
	}
}

func TestVersionMapMinOver(t *testing.T) {
	var m VersionMap
	m.Raise(rng("a", "m"), 10)
	m.Raise(rng("m", "z"), 7)

	if got := m.MinOver(rng("a", "z")); got != 7 {
		t.Errorf("MinOver full = %v, want 7", got)
	}
	if got := m.MinOver(rng("a", "m")); got != 10 {
		t.Errorf("MinOver left = %v, want 10", got)
	}
	// A gap anywhere yields NoVersion.
	if got := m.MinOver(rng("a", "zz")); got != NoVersion {
		t.Errorf("MinOver with gap = %v, want NoVersion", got)
	}
	if got := m.MinOver(keyspace.Range{}); got != NoVersion {
		t.Errorf("MinOver empty range = %v", got)
	}
	if !m.CoversAtLeast(rng("b", "y"), 7) {
		t.Error("CoversAtLeast(7) should hold")
	}
	if m.CoversAtLeast(rng("b", "y"), 8) {
		t.Error("CoversAtLeast(8) should fail: right half only at 7")
	}
}

func TestVersionMapMaxOver(t *testing.T) {
	var m VersionMap
	m.Raise(rng("a", "c"), 3)
	m.Raise(rng("x", "inf"), 9)
	if got := m.MaxOver(keyspace.Full()); got != 9 {
		t.Errorf("MaxOver = %v, want 9", got)
	}
	if got := m.MaxOver(rng("a", "d")); got != 3 {
		t.Errorf("MaxOver left = %v, want 3", got)
	}
	if got := m.MaxOver(rng("d", "e")); got != NoVersion {
		t.Errorf("MaxOver gap = %v, want 0", got)
	}
}

func TestVersionMapSegmentsNormalized(t *testing.T) {
	var m VersionMap
	m.Raise(rng("a", "c"), 5)
	m.Raise(rng("c", "f"), 5) // adjacent same version: must merge
	segs := m.Segments()
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want single merged segment", m.String())
	}
	if segs[0].Range != rng("a", "f") || segs[0].Version != 5 {
		t.Fatalf("merged segment = %v", segs[0])
	}
	m.Raise(rng("b", "d"), 5) // fully covered, same version: no change
	if len(m.Segments()) != 1 {
		t.Fatalf("idempotent raise changed segments: %v", m.String())
	}
}

func TestVersionMapClone(t *testing.T) {
	var m VersionMap
	m.Raise(rng("a", "z"), 4)
	c := m.Clone()
	c.Raise(rng("a", "z"), 9)
	if got := m.VersionAt("b"); got != 4 {
		t.Fatalf("clone mutated original: %v", got)
	}
	if got := c.VersionAt("b"); got != 9 {
		t.Fatalf("clone not updated: %v", got)
	}
}

// TestQuickVersionMapPointwise checks Raise against a brute-force pointwise
// model over a probe key set.
func TestQuickVersionMapPointwise(t *testing.T) {
	letters := []keyspace.Key{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m VersionMap
		model := map[keyspace.Key]Version{}
		for i := 0; i < 20; i++ {
			lo := letters[r.Intn(len(letters))]
			hi := letters[r.Intn(len(letters))]
			v := Version(r.Intn(50))
			rg := keyspace.Range{Low: lo, High: hi}
			m.Raise(rg, v)
			for _, k := range letters {
				if rg.Contains(k) && v > model[k] {
					model[k] = v
				}
			}
		}
		for _, k := range letters {
			if m.VersionAt(k) != model[k] {
				t.Logf("mismatch at %q: got %v want %v (%v)", string(k), m.VersionAt(k), model[k], m.String())
				return false
			}
		}
		// MinOver agrees with pointwise min over a random probe range.
		lo := letters[r.Intn(len(letters))]
		hi := letters[r.Intn(len(letters))]
		probe := keyspace.Range{Low: lo, High: hi}
		if probe.Empty() {
			return true
		}
		min := Version(^uint64(0))
		for _, k := range letters {
			if probe.Contains(k) && model[k] < min {
				min = model[k]
			}
		}
		// Restrict to probes fully inside the letter grid (keys between
		// letters aren't modelled).
		got := m.MinOver(probe)
		if min == NoVersion && got != NoVersion {
			t.Logf("MinOver %v: got %v want NoVersion", probe, got)
			return false
		}
		if min != NoVersion && got > min {
			// got may be lower (sub-letter gaps don't exist: ranges are
			// letter-aligned so equality should hold).
			t.Logf("MinOver %v: got %v want %v (%v)", probe, got, min, m.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVersionMapSegmentsInvariant: segments stay sorted, disjoint,
// non-adjacent-equal and positive-version after arbitrary raises.
func TestQuickVersionMapSegmentsInvariant(t *testing.T) {
	letters := "abcdefghij"
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m VersionMap
		for i := 0; i < 30; i++ {
			lo := keyspace.Key(letters[r.Intn(len(letters))])
			hi := keyspace.Key(letters[r.Intn(len(letters))])
			m.Raise(keyspace.Range{Low: lo, High: hi}, Version(r.Intn(10)))
		}
		segs := m.Segments()
		for i, s := range segs {
			if s.Range.Empty() || s.Version == NoVersion {
				return false
			}
			if i > 0 {
				prev := segs[i-1]
				if prev.Range.Overlaps(s.Range) || prev.Range.Low >= s.Range.Low {
					return false
				}
				if prev.Version == s.Version && prev.Range.Adjacent(s.Range) {
					return false // should have merged
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// modelMap is VersionMap as it was first written — a fresh slice, RangeSet
// subtraction per segment, sort and merge — kept as the reference the
// ordered-walk Raise and MinOver are checked against.
type modelMap struct{ segs []RangeVersion }

func (m *modelMap) raise(r keyspace.Range, v Version) {
	if r.Empty() || v == NoVersion {
		return
	}
	out := make([]RangeVersion, 0, len(m.segs)+2)
	uncovered := keyspace.NewRangeSet(r)
	for _, s := range m.segs {
		inter := s.Range.Intersect(r)
		if inter.Empty() {
			out = append(out, s)
			continue
		}
		uncovered = uncovered.SubtractRange(s.Range)
		// Pieces of s outside r keep their version.
		for _, rest := range keyspace.NewRangeSet(s.Range).SubtractRange(r).Ranges() {
			out = append(out, RangeVersion{Range: rest, Version: s.Version})
		}
		// The overlap takes the max.
		out = append(out, RangeVersion{Range: inter, Version: max(s.Version, v)})
	}
	for _, rest := range uncovered.Ranges() {
		out = append(out, RangeVersion{Range: rest, Version: v})
	}
	// Sort, then merge adjacent segments of equal version.
	sort.Slice(out, func(i, j int) bool { return out[i].Range.Low < out[j].Range.Low })
	m.segs = out[:0]
	for _, s := range out {
		if n := len(m.segs); n > 0 && m.segs[n-1].Version == s.Version && m.segs[n-1].Range.Adjacent(s.Range) {
			m.segs[n-1].Range = m.segs[n-1].Range.Union(s.Range)
			continue
		}
		m.segs = append(m.segs, s)
	}
}

func (m *modelMap) minOver(r keyspace.Range) Version {
	if r.Empty() {
		return NoVersion
	}
	remaining := keyspace.NewRangeSet(r)
	min := Version(^uint64(0))
	for _, s := range m.segs {
		if s.Range.Intersect(r).Empty() {
			continue
		}
		remaining = remaining.SubtractRange(s.Range)
		if s.Version < min {
			min = s.Version
		}
	}
	if !remaining.Empty() {
		return NoVersion
	}
	return min
}

// TestQuickVersionMapMatchesModel drives random claim sequences through the
// ordered walk and the model: sub-ranges of existing segments, unbounded
// highs, claims that make equal-version neighbours, claims below the current
// version. Segments must agree exactly after every claim, MinOver on every
// probe.
func TestQuickVersionMapMatchesModel(t *testing.T) {
	bounds := []keyspace.Key{"", "a", "b", "c", "d", "e", "f", "g", "h", keyspace.Inf}
	pick := func(r *rand.Rand) keyspace.Range {
		return keyspace.Range{Low: bounds[r.Intn(len(bounds)-1)], High: bounds[1+r.Intn(len(bounds)-1)]}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var m VersionMap
		var model modelMap
		for i := 0; i < 40; i++ {
			claim, v := pick(r), Version(r.Intn(6)) // few versions: neighbours often come out equal
			m.Raise(claim, v)
			model.raise(claim, v)
			if !reflect.DeepEqual(append([]RangeVersion(nil), m.Segments()...), append([]RangeVersion(nil), model.segs...)) {
				t.Logf("seed %d step %d: Raise(%v, %v): got %v, model %v", seed, i, claim, v, m.Segments(), model.segs)
				return false
			}
			probe := pick(r)
			if got, want := m.MinOver(probe), model.minOver(probe); got != want {
				t.Logf("seed %d step %d: MinOver(%v) = %v, model %v (%v)", seed, i, probe, got, want, m.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestVersionMapRaiseAllocatesNothing pins the frontier's steady state: once
// both buffers have grown, raising an existing segment — what every commit's
// progress does to the hub — allocates nothing.
func TestVersionMapRaiseAllocatesNothing(t *testing.T) {
	var m VersionMap
	m.Raise(rng("a", "h"), 1)
	m.Raise(rng("h", "p"), 2)
	m.Raise(rng("p", "inf"), 3)
	v := Version(3)
	if n := testing.AllocsPerRun(100, func() {
		v++
		m.Raise(rng("h", "p"), v)
	}); n != 0 {
		t.Fatalf("Raise of an existing segment: %v allocs, want 0", n)
	}
	if got := m.VersionAt("k"); got != v {
		t.Fatalf("VersionAt(k) = %v, want %v", got, v)
	}
}
