package mvcc

import (
	"math/rand"

	"unbundle/internal/keyspace"
)

// maxLevel bounds the skiplist height; 2^24 keys is far beyond any
// experiment in this repository. A node keeps its lowest inlineLevels links
// in itself and the rest, if it is that tall (1 node in 256), in an array of
// its own: 64 B a key where a full-height tower was 224 B.
const (
	maxLevel     = 24
	inlineLevels = 4
)

// skipNode is one key's node. The value payload is the key's version
// history, owned by the store.
type skipNode struct {
	key  keyspace.Key
	hist *history
	low  [inlineLevels]*skipNode
	high *[maxLevel - inlineLevels]*skipNode // nil up to inlineLevels levels
}

// link is the node's forward pointer at level i, which must be below the
// node's level. The low levels, where a walk meets most of its distinct
// nodes, are read straight from the node as a full-height array would be; a
// slice-typed tower cost a dependent load more on every step (+5 % on an
// 8-key commit).
func (n *skipNode) link(i int) **skipNode {
	if i < inlineLevels {
		return &n.low[i]
	}
	return &n.high[i-inlineLevels]
}

// skiplist is an ordered map from Key to *history. It is not internally
// synchronized; the store's lock guards it. A skiplist (rather than a sorted
// slice) keeps inserts O(log n) under the write-heavy CDC workloads the
// experiments run.
type skiplist struct {
	head  skipNode
	level int
	size  int
	rng   *rand.Rand
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:  skipNode{high: new([maxLevel - inlineLevels]*skipNode)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// randomLevel draws a geometric level with p = 1/4.
func (s *skiplist) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// find returns the node for key, or nil.
func (s *skiplist) find(key keyspace.Key) *history {
	if n := s.seek(key); n != nil && n.key == key {
		return n.hist
	}
	return nil
}

// getOrCreate returns the history for key, inserting an empty one if absent.
func (s *skiplist) getOrCreate(key keyspace.Key) *history {
	var update [maxLevel]*skipNode
	n := &s.head
	for i := s.level - 1; i >= 0; i-- {
		for nx := *n.link(i); nx != nil && nx.key < key; nx = *n.link(i) {
			n = nx
		}
		update[i] = n
	}
	if cand := n.low[0]; cand != nil && cand.key == key {
		return cand.hist
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = &s.head
		}
		s.level = lvl
	}
	node := &skipNode{key: key, hist: &history{}}
	if lvl > inlineLevels {
		node.high = new([maxLevel - inlineLevels]*skipNode)
	}
	for i := 0; i < lvl; i++ {
		*node.link(i) = *update[i].link(i)
		*update[i].link(i) = node
	}
	s.size++
	return node.hist
}

// seek returns the first node with key >= k.
func (s *skiplist) seek(k keyspace.Key) *skipNode {
	n := &s.head
	for i := s.level - 1; i >= 0; i-- {
		for nx := *n.link(i); nx != nil && nx.key < k; nx = *n.link(i) {
			n = nx
		}
	}
	return n.low[0]
}

// ascend calls fn for every (key, history) with key in r, in key order,
// stopping early if fn returns false.
func (s *skiplist) ascend(r keyspace.Range, fn func(keyspace.Key, *history) bool) {
	if r.Empty() {
		return
	}
	for n := s.seek(r.Low); n != nil; n = n.low[0] {
		if !r.Contains(n.key) {
			return
		}
		if !fn(n.key, n.hist) {
			return
		}
	}
}
