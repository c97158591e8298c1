package mvcc

import (
	"encoding/binary"

	"unbundle/internal/keyspace"
)

// A leaf holds up to leafSlots keys and an inner node up to innerKids
// children. Every key in the tree also keeps its first prefixLen bytes
// inline, so that a key of up to 16 B compares without a pointer chase.
const (
	leafSlots = 64
	innerKids = 64
	prefixLen = 16
)

// prefix is a key's first 16 bytes, zero-padded, as two big-endian words:
// two prefixes compare word by word as their keys' first 16 bytes do.
type prefix [2]uint64

func prefixOf(k keyspace.Key) prefix {
	var b [prefixLen]byte
	copy(b[:], k)
	return prefix{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

// less reports whether key a, whose prefix is ap, sorts before key b, whose
// prefix is bp. It is small enough to inline into the searches; a prefix tie
// goes to lessTie.
func less(a keyspace.Key, ap prefix, b keyspace.Key, bp prefix) bool {
	if ap[0] != bp[0] {
		return ap[0] < bp[0]
	}
	if ap[1] != bp[1] {
		return ap[1] < bp[1]
	}
	return lessTie(a, b)
}

// lessTie is less for keys whose prefixes tie. When either key fits in its
// prefix, that key is a prefix of the other (the padding is zeros), so the
// shorter key sorts first; only two longer keys compare their tails.
func lessTie(a, b keyspace.Key) bool {
	if len(a) <= prefixLen || len(b) <= prefixLen {
		return len(a) < len(b)
	}
	return a[prefixLen:] < b[prefixLen:]
}

// slot is one key's entry. head is the key's newest version record, owned by
// the store; nil for a key whose history GC dropped whole. A slot moves when
// its leaf shifts or splits, so a *slot is valid only until the next insert.
type slot struct {
	key  keyspace.Key
	head *version
}

// leaf holds n keys in order, pre[i] being the prefix of slots[i].key; a
// search reads the prefixes, 16 B a probe, and touches a slot only on a tie.
type leaf struct {
	n     int
	pre   [leafSlots]prefix
	slots [leafSlots]slot
	next  *leaf
}

// inner routes keys to its n children: separator i, (keys[i], pre[i]), is
// the least key of child i+1. The arrays hold one child more than a node
// keeps, so an insert may overfill a node before it splits.
type inner struct {
	n    int
	pre  [innerKids]prefix
	keys [innerKids]keyspace.Key
	kids [innerKids + 1]child
}

// child is a link to the level below: lf in the level above the leaves, in
// above that.
type child struct {
	in *inner
	lf *leaf
}

// bound is a separator kept by the finger; set is false for no bound.
type bound struct {
	key keyspace.Key
	pre prefix
	set bool
}

// btree is an ordered map from Key to the key's version chain. It is not
// internally synchronized; the store's lock guards it. Keys are never
// removed: GC empties a slot's chain but keeps the slot.
type btree struct {
	root   *inner
	height int // inner levels above the leaves, at least 1
	size   int

	// finger is the leaf the last getOrCreate descended to and the
	// separators either side of it: a key inside them belongs to that leaf,
	// so a run of nearby keys descends once. path is the descent, root
	// first, which a leaf split walks back up; a split resets the finger,
	// and nothing else moves a separator.
	finger struct {
		leaf   *leaf
		lo, hi bound
	}
	path []step
}

// step is one level of a descent: the node and the child taken.
type step struct {
	in *inner
	i  int
}

func newBtree() *btree {
	t := &btree{root: &inner{n: 1}, height: 1}
	t.root.kids[0].lf = new(leaf)
	return t
}

// search returns the first slot of l whose key is not below k, and whether
// that key is k.
func (l *leaf) search(k keyspace.Key, kp prefix) (int, bool) {
	lo, hi := 0, l.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(l.slots[m].key, l.pre[m], k, kp) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < l.n && !less(k, kp, l.slots[lo].key, l.pre[lo])
}

// insert puts an empty slot for k at i, which must be its place; l has room.
func (l *leaf) insert(i int, k keyspace.Key, kp prefix) {
	copy(l.pre[i+1:l.n+1], l.pre[i:l.n])
	copy(l.slots[i+1:l.n+1], l.slots[i:l.n])
	l.pre[i], l.slots[i] = kp, slot{key: k}
	l.n++
}

// descend returns the leaf whose keys would include k. With record set —
// the writer, under the store's write lock — it also leaves the path and
// the finger at that leaf; readers share the tree and record nothing.
func (t *btree) descend(k keyspace.Key, kp prefix, record bool) *leaf {
	if record {
		t.path = t.path[:0]
		t.finger.lo, t.finger.hi = bound{}, bound{}
	}
	in := t.root
	for h := t.height; ; h-- {
		lo, hi := 0, in.n-1 // the child is the number of separators <= k
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if !less(k, kp, in.keys[m], in.pre[m]) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		c := lo
		if record {
			t.path = append(t.path, step{in, c})
			if c > 0 {
				t.finger.lo = bound{in.keys[c-1], in.pre[c-1], true}
			}
			if c < in.n-1 {
				t.finger.hi = bound{in.keys[c], in.pre[c], true}
			}
		}
		if h == 1 {
			if record {
				t.finger.leaf = in.kids[c].lf
			}
			return in.kids[c].lf
		}
		in = in.kids[c].in
	}
}

// find returns key's newest version record, or nil.
func (t *btree) find(k keyspace.Key) *version {
	kp := prefixOf(k)
	l := t.descend(k, kp, false)
	if i, ok := l.search(k, kp); ok {
		return l.slots[i].head
	}
	return nil
}

// getOrCreate returns the slot for key, inserting one with no versions if
// absent. A key between the finger's bounds is looked up in the finger's
// leaf; any other descends from the root once.
func (t *btree) getOrCreate(k keyspace.Key) *slot {
	kp := prefixOf(k)
	f := &t.finger
	l := f.leaf
	if l == nil || f.lo.set && less(k, kp, f.lo.key, f.lo.pre) || f.hi.set && !less(k, kp, f.hi.key, f.hi.pre) {
		l = t.descend(k, kp, true)
	}
	i, ok := l.search(k, kp)
	if ok {
		return &l.slots[i]
	}
	t.size++
	if l.n < leafSlots {
		l.insert(i, k, kp)
		return &l.slots[i]
	}
	// Split the full leaf in half.
	const mid = leafSlots / 2
	r := &leaf{n: l.n - mid, next: l.next}
	copy(r.pre[:], l.pre[mid:l.n])
	copy(r.slots[:], l.slots[mid:l.n])
	clear(l.slots[mid:l.n])
	l.n, l.next = mid, r
	if i >= mid {
		l, i = r, i-mid
	}
	l.insert(i, k, kp)
	t.link(r.slots[0].key, r.pre[0], child{lf: r})
	t.finger.leaf = nil
	return &l.slots[i]
}

// link inserts a separator and the new node right of it into the last node
// of t.path, splitting overfull nodes back up the path and growing a new
// root past the top.
func (t *btree) link(key keyspace.Key, pre prefix, kid child) {
	for d := len(t.path) - 1; d >= 0; d-- {
		in, c := t.path[d].in, t.path[d].i
		copy(in.pre[c+1:in.n], in.pre[c:in.n-1])
		copy(in.keys[c+1:in.n], in.keys[c:in.n-1])
		copy(in.kids[c+2:in.n+1], in.kids[c+1:in.n])
		in.pre[c], in.keys[c], in.kids[c+1] = pre, key, kid
		if in.n++; in.n <= innerKids {
			return
		}
		// The left half keeps mid children; separator mid-1 moves up.
		mid := in.n / 2
		r := &inner{n: in.n - mid}
		copy(r.pre[:], in.pre[mid:in.n-1])
		copy(r.keys[:], in.keys[mid:in.n-1])
		copy(r.kids[:], in.kids[mid:in.n])
		key, pre, kid = in.keys[mid-1], in.pre[mid-1], child{in: r}
		clear(in.keys[mid-1 : in.n-1])
		clear(in.kids[mid:in.n])
		in.n = mid
	}
	root := &inner{n: 2}
	root.pre[0], root.keys[0] = pre, key
	root.kids[0], root.kids[1] = child{in: t.root}, kid
	t.root = root
	t.height++
}

// ascend calls fn for every slot with key in r, in key order, stopping early
// if fn returns false.
func (t *btree) ascend(r keyspace.Range, fn func(*slot) bool) {
	if r.Empty() {
		return
	}
	kp := prefixOf(r.Low)
	l := t.descend(r.Low, kp, false)
	i, _ := l.search(r.Low, kp)
	bounded, hp := r.High < keyspace.Inf, prefixOf(r.High)
	for ; l != nil; l, i = l.next, 0 {
		for ; i < l.n; i++ {
			if bounded && !less(l.slots[i].key, l.pre[i], r.High, hp) || !fn(&l.slots[i]) {
				return
			}
		}
	}
}
