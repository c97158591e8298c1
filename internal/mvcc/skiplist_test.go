package mvcc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"unbundle/internal/keyspace"
)

// has reports whether the list holds a node for k, with or without versions
// (find reports the node's chain).
func (s *skiplist) has(k keyspace.Key) bool {
	n := s.seek(k)
	return n != nil && n.key == k
}

func TestSkiplistInsertFind(t *testing.T) {
	s := newSkiplist(1)
	if s.find("missing") != nil {
		t.Fatal("found a key in an empty list")
	}
	n1 := s.getOrCreate("b")
	n2 := s.getOrCreate("a")
	if s.getOrCreate("b") != n1 {
		t.Fatal("duplicate insert created a new node")
	}
	n1.head, n2.head = &version{version: 1}, &version{version: 2}
	if s.find("a") != n2.head || s.find("b") != n1.head {
		t.Fatal("find returned wrong chain")
	}
	if s.size != 2 {
		t.Fatalf("size = %d", s.size)
	}
}

func TestSkiplistAscendOrder(t *testing.T) {
	s := newSkiplist(2)
	const n = 5000 // enough keys that some towers outgrow the node's inline links
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		s.getOrCreate(keyspace.NumericKey(i))
	}
	if s.level <= inlineLevels {
		t.Fatalf("list of %d keys is %d levels high: the tall-node path is untested", n, s.level)
	}
	for _, i := range perm {
		if !s.has(keyspace.NumericKey(i)) {
			t.Fatalf("key %d lost", i)
		}
	}
	var got []keyspace.Key
	s.ascend(keyspace.Full(), func(n *skipNode) bool {
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
	s := newSkiplist(3)
	for i := 0; i < 100; i++ {
		s.getOrCreate(keyspace.NumericKey(i))
	}
	var got []keyspace.Key
	s.ascend(keyspace.NumericRange(10, 20), func(n *skipNode) bool {
		got = append(got, n.key)
		return true
	})
	if len(got) != 10 || got[0] != keyspace.NumericKey(10) || got[9] != keyspace.NumericKey(19) {
		t.Fatalf("range ascend = %v", got)
	}
	// Early stop.
	n := 0
	s.ascend(keyspace.Full(), func(*skipNode) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	// Empty range.
	s.ascend(keyspace.Range{}, func(*skipNode) bool {
		t.Fatal("empty range visited a key")
		return false
	})
}

// TestQuickSkiplistMatchesMap: the skiplist agrees with a map + sort model
// under random inserts and seeks.
func TestQuickSkiplistMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSkiplist(seed)
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
		// seek returns the first key >= probe.
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
		node := s.seek(probe)
		if want == "" {
			return node == nil
		}
		return node != nil && node.key == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// towers renders the list level by level, so that two lists compare equal
// only when they hold the same nodes in the same order with the same heights.
func (s *skiplist) towers() [][]keyspace.Key {
	out := make([][]keyspace.Key, s.level)
	for i := range out {
		for n := *s.head.link(i); n != nil; n = *n.link(i) {
			out[i] = append(out[i], n.key)
		}
	}
	return out
}

// TestQuickFingerInsertMatchesHeadSearch feeds one key sequence to two lists
// drawing the same node heights: one keeps its finger from call to call —
// across the runs too, as a finger left by an earlier transaction is — and
// the other resets it before every call, which is the plain search from the
// head. The sequence is made of ascending runs (with gaps and repeats),
// descending runs and scattered keys, long enough that inserts raise the
// list's level while a finger is live. Both must build the same towers, hand
// back the node for the key asked, and agree with find.
func TestQuickFingerInsertMatchesHeadSearch(t *testing.T) {
	raisedUnderFinger := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fingered, plain := newSkiplist(seed), newSkiplist(seed)
		insert := func(i int) bool {
			k := keyspace.NumericKey(i)
			live, before := fingered.finger[0] != nil, fingered.level
			plain.resetFinger()
			a, b := fingered.getOrCreate(k), plain.getOrCreate(k)
			if live && fingered.level > before {
				raisedUnderFinger++
			}
			return a.key == k && b.key == k && fingered.has(k) && fingered.seek(k) == a
		}
		for run := 0; run < 60; run++ {
			at, n := rng.Intn(4000), 1+rng.Intn(12)
			for ; n > 0; n-- {
				switch run % 3 {
				case 0: // ascending; a step of 0 repeats the key
					at += rng.Intn(3)
				case 1: // descending
					at = max(at-1-rng.Intn(3), 0)
				default:
					at = rng.Intn(4000)
				}
				if !insert(at) {
					t.Logf("seed %d: wrong node for key %d", seed, at)
					return false
				}
			}
			if rng.Intn(4) == 0 {
				fingered.resetFinger() // some transactions start from the head
			}
		}
		if fingered.size != plain.size || !reflect.DeepEqual(fingered.towers(), plain.towers()) {
			t.Logf("seed %d: fingered list differs from head-searched list", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if raisedUnderFinger == 0 {
		t.Fatal("no insert raised the list's level under a live finger: that path is untested")
	}
}

func BenchmarkSkiplistInsert(b *testing.B) {
	s := newSkiplist(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.getOrCreate(keyspace.NumericKey(i % 100000))
	}
}

func BenchmarkSkiplistFind(b *testing.B) {
	s := newSkiplist(1)
	for i := 0; i < 100000; i++ {
		s.getOrCreate(keyspace.NumericKey(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.find(keyspace.NumericKey(i % 100000))
	}
}
