package mvcc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// The Skiplist* tests keep the names they had when the index was a skiplist.

// has reports whether the tree holds a slot for k, with or without versions
// (find reports the slot's chain).
func (t *btree) has(k keyspace.Key) bool {
	kp := prefixOf(k)
	_, ok := t.descend(k, kp, false).search(k, kp)
	return ok
}

// first returns the least key at or above k, and whether there is one.
func (t *btree) first(k keyspace.Key) (got keyspace.Key, ok bool) {
	t.ascend(keyspace.Range{Low: k, High: keyspace.Inf}, func(s *slot) bool {
		got, ok = s.key, true
		return false
	})
	return got, ok
}

func TestSkiplistInsertFind(t *testing.T) {
	s := newBtree()
	if s.find("missing") != nil {
		t.Fatal("found a key in an empty tree")
	}
	s.getOrCreate("b").head = &version{version: 1}
	s.getOrCreate("a").head = &version{version: 2}
	if s.getOrCreate("b").head.version != 1 {
		t.Fatal("duplicate insert created a new slot")
	}
	if s.find("a").version != 2 || s.find("b").version != 1 {
		t.Fatal("find returned wrong chain")
	}
	if s.size != 2 {
		t.Fatalf("size = %d", s.size)
	}
}

func TestSkiplistAscendOrder(t *testing.T) {
	s := newBtree()
	const n = 5000 // enough keys that the root splits
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		s.getOrCreate(keyspace.NumericKey(i))
	}
	if s.height < 2 {
		t.Fatalf("tree of %d keys is %d inner levels high: the root split is untested", n, s.height)
	}
	for _, i := range perm {
		if !s.has(keyspace.NumericKey(i)) {
			t.Fatalf("key %d lost", i)
		}
	}
	var got []keyspace.Key
	s.ascend(keyspace.Full(), func(n *slot) bool {
		got = append(got, n.key)
		return true
	})
	if len(got) != n {
		t.Fatalf("ascend visited %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("ascend out of order")
	}
}

func TestSkiplistAscendRangeAndEarlyStop(t *testing.T) {
	s := newBtree()
	for i := 0; i < 100; i++ {
		s.getOrCreate(keyspace.NumericKey(i))
	}
	var got []keyspace.Key
	s.ascend(keyspace.NumericRange(10, 20), func(n *slot) bool {
		got = append(got, n.key)
		return true
	})
	if len(got) != 10 || got[0] != keyspace.NumericKey(10) || got[9] != keyspace.NumericKey(19) {
		t.Fatalf("range ascend = %v", got)
	}
	// Early stop.
	n := 0
	s.ascend(keyspace.Full(), func(*slot) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	// Empty range.
	s.ascend(keyspace.Range{}, func(*slot) bool {
		t.Fatal("empty range visited a key")
		return false
	})
}

// TestQuickSkiplistMatchesMap: the index agrees with a map + sort model
// under random inserts and seeks.
func TestQuickSkiplistMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newBtree()
		model := map[keyspace.Key]bool{}
		for i := 0; i < 300; i++ {
			k := keyspace.Key(fmt.Sprintf("k%03d", rng.Intn(150)))
			s.getOrCreate(k)
			model[k] = true
		}
		if s.size != len(model) {
			return false
		}
		// find agrees.
		for i := 0; i < 150; i++ {
			k := keyspace.Key(fmt.Sprintf("k%03d", i))
			if s.has(k) != model[k] {
				return false
			}
		}
		// The first key at or above a probe.
		probe := keyspace.Key(fmt.Sprintf("k%03d", rng.Intn(150)))
		var want keyspace.Key
		var keys []keyspace.Key
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if k >= probe {
				want = k
				break
			}
		}
		got, ok := s.first(probe)
		if want == "" {
			return !ok
		}
		return ok && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// indexKey builds key number x of family f. The families straddle the
// inline prefix: 12 B keys (the benchmark's), exactly 16 B, longer keys that
// share one 16 B prefix, keys of up to 3 bytes of 'a' and 0 (the empty key,
// "a", "a\x00"), and "a" followed by up to 23 zero bytes, whose prefixes
// all tie with "a"'s.
func indexKey(f byte, x uint16) keyspace.Key {
	switch f % 5 {
	case 0:
		return keyspace.NumericKey(int(x))
	case 1:
		return keyspace.Key(fmt.Sprintf("%016d", x))
	case 2:
		return keyspace.Key(fmt.Sprintf("0123456789abcdef%05d", x))
	case 3:
		b := make([]byte, x%4)
		for j := range b {
			if x>>(2+j)&1 == 1 {
				b[j] = 'a'
			}
		}
		return keyspace.Key(b)
	default:
		return keyspace.Key("a" + strings.Repeat("\x00", int(x%24)))
	}
}

// Index model operations, one 8-byte record each: op, family, x (2 bytes),
// then four argument bytes.
const (
	opInsert = iota // getOrCreate key(family, x)
	opRun           // getOrCreate key(family, x + j*step) for j < count: args count (2 bytes), step (2 bytes, signed)
	opFind          // find key(family, x)
	opAscend        // ascend [key(family, x), key(args[0], args[1:3])) stopping after args[3] slots (0: none); args[0] >= 250 is an unbounded high
	indexOps
)

// indexCover counts what a model run exercised.
type indexCover struct {
	splits     int // leaf splits
	afterSplit int // lookups right after a split, the second through the finger
	height     int // inner levels at the end
}

// runIndexModel applies the operations data encodes to a B+tree and to a
// sorted-map model and reports the first disagreement: a slot for the wrong
// key or with the wrong chain, a find or an ascend that differs from the
// model, a less that differs from string order, or a tree that breaks its
// invariants (see check).
func runIndexModel(data []byte) (cover indexCover, err error) {
	tr := newBtree()
	model := map[keyspace.Key]*version{}
	var sorted []keyspace.Key
	prev := keyspace.Key("")
	get := func(k keyspace.Key) error {
		if less(k, prefixOf(k), prev, prefixOf(prev)) != (k < prev) || less(prev, prefixOf(prev), k, prefixOf(k)) != (prev < k) {
			return fmt.Errorf("less disagrees with string order on %q, %q", k, prev)
		}
		prev = k
		s := tr.getOrCreate(k)
		want, ok := model[k]
		switch {
		case s.key != k || s.head != want:
			return fmt.Errorf("getOrCreate(%q) = slot for %q with chain %p, want %p", k, s.key, s.head, want)
		case !ok:
			s.head = &version{version: core.Version(len(model) + 1)}
			model[k], sorted = s.head, nil
		}
		if tr.size != len(model) {
			return fmt.Errorf("size %d, model %d", tr.size, len(model))
		}
		return nil
	}
	keys := func() []keyspace.Key {
		if sorted == nil {
			sorted = make([]keyspace.Key, 0, len(model))
			for k := range model {
				sorted = append(sorted, k)
			}
			slices.Sort(sorted)
		}
		return sorted
	}
	for ; len(data) >= 8; data = data[8:] {
		f, x, a := data[1], uint16(data[2])<<8|uint16(data[3]), data[4:8]
		k := indexKey(f, x)
		switch data[0] % indexOps {
		case opInsert:
			err = get(k)
		case opRun:
			count, step := (int(a[0])<<8|int(a[1]))%512, uint16(a[2])<<8|uint16(a[3])
			for j := 0; j < count && err == nil; j++ {
				k := indexKey(f, x+uint16(j)*step)
				before := tr.size
				if err = get(k); err != nil || tr.size == before || tr.finger.leaf != nil {
					continue
				}
				// A leaf split: look the key up again (a descent) and the one
				// before it (through the finger that descent left).
				cover.splits++
				p := prev
				if err = get(k); err == nil {
					prev = k
					err = get(p)
					cover.afterSplit++
				}
			}
		case opFind:
			if got := tr.find(k); got != model[k] {
				err = fmt.Errorf("find(%q) = %p, want %p", k, got, model[k])
			}
		case opAscend:
			r := keyspace.Range{Low: k, High: keyspace.Inf}
			if a[0] < 250 {
				r.High = indexKey(a[0], uint16(a[1])<<8|uint16(a[2]))
			}
			var want, got []keyspace.Key
			for _, k := range keys() {
				if r.Contains(k) && (a[3] == 0 || len(want) < int(a[3])) {
					want = append(want, k)
				}
			}
			tr.ascend(r, func(s *slot) bool {
				got = append(got, s.key)
				return a[3] == 0 || len(got) < int(a[3])
			})
			if i := diffAt(got, want); i >= 0 {
				err = fmt.Errorf("ascend(%q) = %d keys, want %d: they differ at %d", r, len(got), len(want), i)
			}
		}
		if err != nil {
			return cover, err
		}
	}
	cover.height = tr.height
	var all []keyspace.Key
	tr.ascend(keyspace.Full(), func(s *slot) bool {
		if s.head != model[s.key] {
			err = fmt.Errorf("slot %q holds chain %p, want %p", s.key, s.head, model[s.key])
		}
		all = append(all, s.key)
		return err == nil
	})
	if i := diffAt(all, keys()); err == nil && i >= 0 {
		err = fmt.Errorf("tree holds %d keys, model %d: they differ at %d", len(all), len(model), i)
	}
	if err == nil {
		err = tr.check()
	}
	return cover, err
}

// diffAt returns the first index at which a and b differ, or -1.
func diffAt(a, b []keyspace.Key) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// check verifies the tree's invariants with plain string order: every node
// within its separators, keys and separators strictly ascending, prefixes
// those of their keys, inner nodes at most innerKids children and, below the
// root, at least half that, every leaf at the same depth and chained in key
// order, and size the number of keys.
func (t *btree) check() error {
	var leaves []*leaf
	var walk func(in *inner, h int, lo, hi *keyspace.Key) error
	walk = func(in *inner, h int, lo, hi *keyspace.Key) error {
		if in.n < 1 || in.n > innerKids || in != t.root && in.n < innerKids/2 {
			return fmt.Errorf("inner node of %d children", in.n)
		}
		for c := 0; c < in.n; c++ {
			clo, chi := lo, hi
			if c > 0 {
				clo = &in.keys[c-1]
			}
			if c < in.n-1 {
				chi = &in.keys[c]
				if in.pre[c] != prefixOf(*chi) || clo != nil && *clo >= *chi {
					return fmt.Errorf("separator %d %q out of order or with a wrong prefix", c, *chi)
				}
			}
			if h > 1 {
				if err := walk(in.kids[c].in, h-1, clo, chi); err != nil {
					return err
				}
				continue
			}
			l := in.kids[c].lf
			for i := 0; i < l.n; i++ {
				k := l.slots[i].key
				if l.pre[i] != prefixOf(k) || i > 0 && l.slots[i-1].key >= k || clo != nil && k < *clo || chi != nil && k >= *chi {
					return fmt.Errorf("leaf key %q out of place or with a wrong prefix", k)
				}
			}
			leaves = append(leaves, l)
		}
		return nil
	}
	if err := walk(t.root, t.height, nil, nil); err != nil {
		return err
	}
	n := 0
	for i, l := range leaves {
		if i+1 < len(leaves) && l.next != leaves[i+1] || i+1 == len(leaves) && l.next != nil {
			return errors.New("leaf chain differs from the tree's leaf order")
		}
		n += l.n
	}
	if n != t.size {
		return fmt.Errorf("size %d, %d keys in leaves", t.size, n)
	}
	return nil
}

// genIndexOps draws n operations: ascending runs (a step of 0 repeats the
// key), descending runs, scattered runs, single inserts, finds and ascends.
func genIndexOps(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, 8*n)
	for range n {
		op, f, x := byte(rng.Intn(indexOps)), byte(rng.Intn(5)), uint16(rng.Intn(1<<16))
		var a [4]byte
		switch op {
		case opRun:
			count, step := 1+rng.Intn(500), rng.Intn(4)
			switch rng.Intn(3) {
			case 1:
				step = -step
			case 2:
				step = 2*rng.Intn(1<<14) + 1
			}
			a = [4]byte{byte(count >> 8), byte(count), byte(step >> 8), byte(step)}
		case opAscend:
			hx := rng.Intn(1 << 16)
			a = [4]byte{byte(rng.Intn(256)), byte(hx >> 8), byte(hx), byte(rng.Intn(3) * rng.Intn(100))}
		}
		out = append(out, op, f, byte(x>>8), byte(x))
		out = append(out, a[:]...)
	}
	return out
}

// indexEdgeOps inserts the keys around the inline prefix's edges in both
// orders, then ascends from each.
func indexEdgeOps() []byte {
	var out []byte
	for _, step := range []uint16{1, 0xffff} {
		for _, f := range []byte{3, 4} {
			out = append(out, opRun, f, 0, 0, 0, 64, byte(step>>8), byte(step))
		}
	}
	for x := range 8 {
		out = append(out, opAscend, 3, 0, byte(x), 4, 0, 20, 0, opFind, 4, 0, byte(x), 0, 0, 0, 0)
	}
	return out
}

// TestQuickIndexMatchesSortedModel drives the B+tree and a sorted-map model
// with the same random operations over keys shorter than, exactly and longer
// than the 16 B prefix: the runs split leaves and inner nodes and grow the
// root, and every split is followed by lookups through a fresh finger. A
// 200k-key scattered load grows the tree to three inner levels, so inner
// nodes below the root split too.
func TestQuickIndexMatchesSortedModel(t *testing.T) {
	var total indexCover
	f := func(seed int64) bool {
		c, err := runIndexModel(genIndexOps(rand.New(rand.NewSource(seed)), 64))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		total.splits += c.splits
		total.afterSplit += c.afterSplit
		total.height = max(total.height, c.height)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if total.splits == 0 || total.afterSplit == 0 || total.height < 2 {
		t.Fatalf("coverage %+v: a split, a lookup after one or a root split is untested", total)
	}
	if _, err := runIndexModel(indexEdgeOps()); err != nil {
		t.Fatal(err)
	}
	var big []byte // per family, 128 disjoint runs of 511 along one odd step's orbit
	for f := byte(0); f < 3; f++ {
		for x := uint16(0); len(big) < 8*128*int(f+1); x += 511 * 0x9e37 % (1 << 16) {
			big = append(big, opRun, f, byte(x>>8), byte(x), 1, 255, 0x9e, 0x37)
		}
	}
	c, err := runIndexModel(big)
	if err != nil {
		t.Fatal(err)
	}
	if c.height < 3 {
		t.Fatalf("scattered load left %d inner levels: no inner node below the root split", c.height)
	}
}

// FuzzIndexMatchesModel is the model check of TestQuickIndexMatchesSortedModel
// over arbitrary operation records, seeded with that test's edge cases and
// with shorter draws of its generator (16 operations keep an execution fast
// under the fuzzer's instrumentation).
func FuzzIndexMatchesModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(genIndexOps(rand.New(rand.NewSource(seed)), 16))
	}
	f.Add(indexEdgeOps())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*64 {
			return
		}
		if _, err := runIndexModel(data); err != nil {
			t.Fatal(err)
		}
	})
}

// The benchmark harness's preload: 100k keys, written as one 8-key commit
// per block in a seeded permutation of the blocks.
const (
	preloadKeys  = 100_000
	preloadBlock = 8
)

func preloadKeyList() []keyspace.Key {
	keys := make([]keyspace.Key, preloadKeys)
	for i := range keys {
		keys[i] = keyspace.NumericKey(i)
	}
	return keys
}

func preload(s *Store, keys []keyspace.Key, val []byte, seed int64) {
	for _, b := range rand.New(rand.NewSource(seed)).Perm(preloadKeys / preloadBlock) {
		s.Commit(func(tx *Tx) error {
			for _, k := range keys[b*preloadBlock : (b+1)*preloadBlock] {
				tx.Put(k, val)
			}
			return nil
		})
	}
}

func BenchmarkStorePreload(b *testing.B) {
	keys, val := preloadKeyList(), make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		preload(NewStore(), keys, val, 1)
	}
}

// BenchmarkStoreCommit8 commits 8 consecutive keys at a random offset into
// the preloaded 100k, the benchmark harness's commit.
func BenchmarkStoreCommit8(b *testing.B) {
	keys, val := preloadKeyList(), make([]byte, 64)
	s := NewStore()
	preload(s, keys, val, 1)
	rng := rand.New(rand.NewSource(2))
	offs := make([]int, 1<<16)
	for i := range offs {
		offs[i] = rng.Intn(preloadKeys - preloadBlock + 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := offs[i%len(offs)]
		s.Commit(func(tx *Tx) error {
			for _, k := range keys[off : off+preloadBlock] {
				tx.Put(k, val)
			}
			return nil
		})
		if i%(1<<14) == 1<<14-1 {
			b.StopTimer()
			s.GCBefore(s.CurrentVersion())
			b.StartTimer()
		}
	}
}

func BenchmarkIndexInsert(b *testing.B) {
	s := newBtree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.getOrCreate(keyspace.NumericKey(i % 100000))
	}
}

func BenchmarkIndexFind(b *testing.B) {
	s := newBtree()
	for i := 0; i < 100000; i++ {
		s.getOrCreate(keyspace.NumericKey(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.find(keyspace.NumericKey(i % 100000))
	}
}
