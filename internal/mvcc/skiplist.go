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

// skipNode is one key's node. head is the key's newest version record, owned
// by the store; nil for a key whose history GC dropped whole.
type skipNode struct {
	key  keyspace.Key
	head *version
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

// skiplist is an ordered map from Key to the key's version chain. It is not
// internally synchronized; the store's lock guards it. A skiplist (rather
// than a sorted slice) keeps inserts O(log n) under the write-heavy CDC
// workloads the experiments run.
type skiplist struct {
	head  skipNode
	level int
	size  int
	rng   *rand.Rand

	// finger is the predecessor of the last getOrCreate's key at every level
	// below level: finger[i] is the last level-i node whose key sorts before
	// it. Nodes are never unlinked and getOrCreate is the only writer, so it
	// stays a valid predecessor array for every key after finger[0].key; a
	// nil finger[0] is no finger.
	finger [maxLevel]*skipNode
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

// find returns key's newest version record, or nil.
func (s *skiplist) find(key keyspace.Key) *version {
	if n := s.seek(key); n != nil && n.key == key {
		return n.head
	}
	return nil
}

// resetFinger makes the next getOrCreate search from the head. Callers about
// to insert a run of keys reset first: a finger left far from the run's first
// key is still correct but costs a climb on top of the descent.
func (s *skiplist) resetFinger() { s.finger[0] = nil }

// getOrCreate returns the node for key, inserting one with no versions if
// absent. The search starts from the finger when key sorts after it — a
// transaction's keys and a Load image's keys mostly ascend — and from the
// head otherwise: it climbs the finger to the lowest level whose next node
// is not before key (that level and all above already hold key's
// predecessors), then descends from there as a head search descends from the
// top, leaving the finger at key.
func (s *skiplist) getOrCreate(key keyspace.Key) *skipNode {
	n, top := &s.head, s.level
	if f := s.finger[0]; f != nil && f.key < key {
		for top = 0; top < s.level; top++ {
			if nx := *s.finger[top].link(top); nx == nil || nx.key >= key {
				break
			}
		}
		if top > 0 {
			n = s.finger[top-1]
		}
	}
	for i := top - 1; i >= 0; i-- {
		for nx := *n.link(i); nx != nil && nx.key < key; nx = *n.link(i) {
			n = nx
		}
		s.finger[i] = n
	}
	if cand := s.finger[0].low[0]; cand != nil && cand.key == key {
		return cand
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			s.finger[i] = &s.head
		}
		s.level = lvl
	}
	node := &skipNode{key: key}
	if lvl > inlineLevels {
		node.high = new([maxLevel - inlineLevels]*skipNode)
	}
	for i := 0; i < lvl; i++ {
		*node.link(i) = *s.finger[i].link(i)
		*s.finger[i].link(i) = node
	}
	s.size++
	return node
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

// ascend calls fn for every node with key in r, in key order, stopping early
// if fn returns false.
func (s *skiplist) ascend(r keyspace.Range, fn func(*skipNode) bool) {
	if r.Empty() {
		return
	}
	for n := s.seek(r.Low); n != nil; n = n.low[0] {
		if !r.Contains(n.key) {
			return
		}
		if !fn(n) {
			return
		}
	}
}
