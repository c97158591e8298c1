package keyspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeContains(t *testing.T) {
	tests := []struct {
		name string
		r    Range
		k    Key
		want bool
	}{
		{"interior", Range{"b", "d"}, "c", true},
		{"low inclusive", Range{"b", "d"}, "b", true},
		{"high exclusive", Range{"b", "d"}, "d", false},
		{"below", Range{"b", "d"}, "a", false},
		{"above", Range{"b", "d"}, "e", false},
		{"empty range", Range{}, "", false},
		{"inverted is empty", Range{"d", "b"}, "c", false},
		{"full contains min", Full(), "", true},
		{"full contains anything", Full(), "zzzz", true},
		{"unbounded high", Range{"m", Inf}, "zzzz", true},
		{"high == Inf contains above Inf", Range{"m", Inf}, Inf + "\x01", true},
		{"high > Inf is unbounded", Range{"m", Inf + "\x00"}, Inf + "\x01", true},
		{"high 0xff x7 is bounded", Range{"m", "\xff\xff\xff\xff\xff\xff\xff"}, "\xff\xff\xff\xff\xff\xff\xff", false},
		{"high 0xff x7 contains below", Range{"m", "\xff\xff\xff\xff\xff\xff\xff"}, "\xff\xff\xff\xff\xff\xff\xfe", true},
		{"point contains key", Point("k"), "k", true},
		{"point excludes successor", Point("k"), Key("k").Next(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Contains(tt.k); got != tt.want {
				t.Errorf("%v.Contains(%q) = %v, want %v", tt.r, string(tt.k), got, tt.want)
			}
		})
	}
}

func TestRangeIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b Range
		want Range
	}{
		{"overlap", Range{"a", "d"}, Range{"c", "f"}, Range{"c", "d"}},
		{"nested", Range{"a", "z"}, Range{"c", "f"}, Range{"c", "f"}},
		{"disjoint", Range{"a", "b"}, Range{"c", "d"}, Range{}},
		{"adjacent", Range{"a", "c"}, Range{"c", "e"}, Range{}},
		{"full vs bounded", Full(), Range{"c", "f"}, Range{"c", "f"}},
		{"unbounded tails", Range{"c", Inf}, Range{"f", Inf}, Range{"f", Inf}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.Intersect(tt.b)
			if got != tt.want {
				t.Errorf("%v.Intersect(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			// Intersection is commutative.
			if rev := tt.b.Intersect(tt.a); rev != got {
				t.Errorf("intersect not commutative: %v vs %v", got, rev)
			}
		})
	}
}

func TestRangeContainsRange(t *testing.T) {
	if !Full().ContainsRange(Range{"a", "b"}) {
		t.Error("full range must contain any bounded range")
	}
	if (Range{"a", "b"}).ContainsRange(Full()) {
		t.Error("bounded range must not contain the full range")
	}
	if !(Range{"a", "z"}).ContainsRange(Range{"a", "z"}) {
		t.Error("range must contain itself")
	}
	if !(Range{"a", "b"}).ContainsRange(Range{}) {
		t.Error("every range contains the empty range")
	}
	if (Range{"c", "d"}).ContainsRange(Range{"a", "z"}) {
		t.Error("subset check inverted")
	}
}

func TestRangeSplit(t *testing.T) {
	left, right := (Range{"a", "z"}).Split("m")
	if left != (Range{"a", "m"}) || right != (Range{"m", "z"}) {
		t.Fatalf("Split = %v, %v", left, right)
	}
	if left.Overlaps(right) {
		t.Error("split halves overlap")
	}
	if !left.Adjacent(right) {
		t.Error("split halves must be adjacent")
	}

	defer func() {
		if recover() == nil {
			t.Error("Split at boundary must panic")
		}
	}()
	(Range{"a", "z"}).Split("a")
}

func TestPrefix(t *testing.T) {
	r := Prefix("user/")
	for _, k := range []Key{"user/", "user/1", "user/\xff\xff"} {
		if !r.Contains(k) {
			t.Errorf("%v should contain %q", r, string(k))
		}
	}
	for _, k := range []Key{"user", "user0", "vser/"} {
		if r.Contains(k) {
			t.Errorf("%v should not contain %q", r, string(k))
		}
	}
	if !Prefix("").ContainsRange(Full()) {
		t.Error("empty prefix must be the full range")
	}
	// All-0xff prefix has no finite upper bound.
	if got := Prefix("\xff\xff"); !got.unbounded() {
		t.Errorf("Prefix(all-0xff) must be unbounded, got %v", got)
	}
}

func TestRangeSetNormalization(t *testing.T) {
	s := NewRangeSet(
		Range{"d", "f"},
		Range{"a", "c"},
		Range{"b", "e"}, // merges all three
		Range{},         // ignored
		Range{"x", "z"},
	)
	want := NewRangeSet(Range{"a", "f"}, Range{"x", "z"})
	if !s.Equal(want) {
		t.Fatalf("normalized set = %v, want %v", s, want)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Adjacent ranges merge.
	s2 := NewRangeSet(Range{"a", "c"}, Range{"c", "e"})
	if s2.Len() != 1 || !s2.ContainsRange(Range{"a", "e"}) {
		t.Fatalf("adjacent ranges must merge, got %v", s2)
	}
}

func TestRangeSetOps(t *testing.T) {
	a := NewRangeSet(Range{"a", "e"}, Range{"m", "q"})
	b := NewRangeSet(Range{"c", "n"})

	union := a.Union(b)
	if !union.Equal(NewRangeSet(Range{"a", "q"})) {
		t.Errorf("union = %v", union)
	}
	inter := a.Intersect(b)
	if !inter.Equal(NewRangeSet(Range{"c", "e"}, Range{"m", "n"})) {
		t.Errorf("intersect = %v", inter)
	}
	diff := a.Subtract(b)
	if !diff.Equal(NewRangeSet(Range{"a", "c"}, Range{"n", "q"})) {
		t.Errorf("subtract = %v", diff)
	}
	if !a.Covers(inter) || !union.Covers(a) || !union.Covers(b) {
		t.Error("covers relations violated")
	}
	hole := NewRangeSet(Full()).SubtractRange(Range{"g", "k"})
	if hole.Contains("h") || !hole.Contains("f") || !hole.Contains("k") {
		t.Errorf("subtract from full broken: %v", hole)
	}
}

func TestRangeSetContains(t *testing.T) {
	s := NewRangeSet(Range{"b", "d"}, Range{"j", Inf})
	tests := []struct {
		k    Key
		want bool
	}{
		{"a", false}, {"b", true}, {"c", true}, {"d", false},
		{"i", false}, {"j", true}, {"zzzz", true},
	}
	for _, tt := range tests {
		if got := s.Contains(tt.k); got != tt.want {
			t.Errorf("Contains(%q) = %v, want %v", string(tt.k), got, tt.want)
		}
	}
}

func TestEvenSplit(t *testing.T) {
	shards := EvenSplit(1000, 7)
	if len(shards) != 7 {
		t.Fatalf("got %d shards", len(shards))
	}
	set := NewRangeSet(shards...)
	if !set.ContainsRange(Full()) {
		t.Errorf("EvenSplit must cover the full keyspace, got %v", set)
	}
	for i := 0; i < len(shards)-1; i++ {
		if shards[i].Overlaps(shards[i+1]) {
			t.Errorf("shards %d and %d overlap", i, i+1)
		}
		if !shards[i].Adjacent(shards[i+1]) {
			t.Errorf("shards %d and %d not adjacent", i, i+1)
		}
	}
	// Every numeric key lands in exactly one shard.
	for i := 0; i < 1000; i += 37 {
		n := 0
		for _, s := range shards {
			if s.Contains(NumericKey(i)) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("key %d in %d shards", i, n)
		}
	}
}

func TestHashPartitionStable(t *testing.T) {
	for i := 0; i < 100; i++ {
		k := NumericKey(i)
		p := HashPartition(k, 16)
		if p < 0 || p >= 16 {
			t.Fatalf("partition %d out of range", p)
		}
		if HashPartition(k, 16) != p {
			t.Fatalf("HashPartition not deterministic for %q", string(k))
		}
	}
}

// randomRange draws a small bounded range (possibly empty) over a compact
// alphabet so that property tests exercise overlaps and adjacency heavily.
func randomRange(r *rand.Rand) Range {
	letters := "abcdefghij"
	lo := letters[r.Intn(len(letters))]
	hi := letters[r.Intn(len(letters))]
	rg := Range{Low: Key(lo), High: Key(hi)}
	if r.Intn(10) == 0 {
		rg.High = Inf
	}
	return rg
}

func randomSet(r *rand.Rand) RangeSet {
	var s RangeSet
	for i := 0; i < r.Intn(5); i++ {
		s = s.Add(randomRange(r))
	}
	return s
}

var probeKeys = []Key{"", "a", "a\x00", "b", "c", "d", "e", "f", "g", "h", "i", "j", "zz"}

// TestQuickSetSemantics verifies that RangeSet operations agree with the
// pointwise set semantics over a probe set of keys.
func TestQuickSetSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		union, inter, diff := a.Union(b), a.Intersect(b), a.Subtract(b)
		for _, k := range probeKeys {
			inA, inB := a.Contains(k), b.Contains(k)
			if union.Contains(k) != (inA || inB) {
				t.Logf("union wrong at %q: a=%v b=%v", string(k), a, b)
				return false
			}
			if inter.Contains(k) != (inA && inB) {
				t.Logf("intersect wrong at %q: a=%v b=%v", string(k), a, b)
				return false
			}
			if diff.Contains(k) != (inA && !inB) {
				t.Logf("subtract wrong at %q: a=%v b=%v", string(k), a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormalized verifies that every constructed set stays normalized:
// sorted, disjoint, non-adjacent, no empty ranges.
func TestQuickNormalized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng).Union(randomSet(rng)).Subtract(randomSet(rng))
		rs := s.Ranges()
		for i, r := range rs {
			if r.Empty() {
				return false
			}
			if i > 0 {
				prev := rs[i-1]
				if prev.Overlaps(r) || prev.Adjacent(r) || prev.Low >= r.Low {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubtractAddInverse: (s \ r) ∪ r ⊇ s and (s ∪ r) \ r = s \ r.
func TestQuickSubtractAddInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng)
		r := randomRange(rng)
		back := s.SubtractRange(r).Add(r)
		if !back.Covers(s) {
			return false
		}
		viaUnion := s.Add(r).SubtractRange(r)
		return viaUnion.Equal(s.SubtractRange(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyNextOrdering(t *testing.T) {
	keys := []Key{"", "a", "ab", "b", NumericKey(0), NumericKey(999)}
	for _, k := range keys {
		n := k.Next()
		if n <= k {
			t.Errorf("Next(%q) = %q not greater", string(k), string(n))
		}
		// Nothing fits strictly between k and k.Next() among byte strings of
		// the probe set.
		for _, other := range keys {
			if other > k && other < n {
				t.Errorf("key %q between %q and its successor", string(other), string(k))
			}
		}
	}
}

func BenchmarkRangeSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ranges := make([]Range, 256)
	for i := range ranges {
		lo := rng.Intn(100000)
		ranges[i] = NumericRange(lo, lo+rng.Intn(500)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s RangeSet
		for _, r := range ranges {
			s = s.Add(r)
		}
	}
}

func BenchmarkRangeSetContains(b *testing.B) {
	var s RangeSet
	for i := 0; i < 1024; i++ {
		s = s.Add(NumericRange(i*10, i*10+5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(NumericKey(i % 10240))
	}
}

var containsSink bool

// BenchmarkRangeContains is the per-event filter call: the full range (the
// common watch) and a bounded one.
func BenchmarkRangeContains(b *testing.B) {
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = NumericKey(i * 97)
	}
	for _, bc := range []struct {
		name string
		r    Range
	}{
		{"full", Full()},
		{"bounded", NumericRange(1000, 50000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				containsSink = bc.r.Contains(keys[i&1023])
			}
		})
	}
}
