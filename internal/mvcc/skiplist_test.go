package mvcc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"unbundle/internal/keyspace"
)

func TestSkiplistInsertFind(t *testing.T) {
	s := newSkiplist(1)
	if s.find("missing") != nil {
		t.Fatal("found a key in an empty list")
	}
	h1 := s.getOrCreate("b")
	h2 := s.getOrCreate("a")
	if s.getOrCreate("b") != h1 {
		t.Fatal("duplicate insert created a new node")
	}
	if s.find("a") != h2 || s.find("b") != h1 {
		t.Fatal("find returned wrong history")
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
		if s.find(keyspace.NumericKey(i)) == nil {
			t.Fatalf("key %d lost", i)
		}
	}
	var got []keyspace.Key
	s.ascend(keyspace.Full(), func(k keyspace.Key, _ *history) bool {
		got = append(got, k)
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
	s.ascend(keyspace.NumericRange(10, 20), func(k keyspace.Key, _ *history) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != keyspace.NumericKey(10) || got[9] != keyspace.NumericKey(19) {
		t.Fatalf("range ascend = %v", got)
	}
	// Early stop.
	n := 0
	s.ascend(keyspace.Full(), func(keyspace.Key, *history) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	// Empty range.
	s.ascend(keyspace.Range{}, func(keyspace.Key, *history) bool {
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
			if (s.find(k) != nil) != model[k] {
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
