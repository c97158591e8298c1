// Package mvcc implements the producer storage substrate: an in-memory
// multi-version key-value store with serializable transactions, monotonic
// commit versions from a timestamp oracle, snapshot reads and scans, version
// history garbage collection, and a change-data-capture tap that feeds watch
// systems through the core.Ingester contract.
//
// It stands in for the paper's Spanner/MySQL/TiDB producer stores (§4): what
// the watch model requires of a store is exactly what this package provides —
// monotonic transaction versions agreed with commit order (§4.2's simplifying
// assumption), consistent snapshots at a version, and an ordered change feed.
package mvcc

import (
	"errors"
	"fmt"
	"sync"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/trace"
)

// Store errors.
var (
	// ErrVersionGCed is returned for reads below the history GC horizon.
	ErrVersionGCed = errors.New("mvcc: requested version below GC horizon")
	// ErrTxnAborted is returned when a transaction callback fails.
	ErrTxnAborted = errors.New("mvcc: transaction aborted")
)

// version is one record of a key's history. A key's records form a chain,
// newest first through prev, whose head lives in the key's index slot; a
// record is never written after it is linked, except that GC cuts prev.
type version struct {
	version core.Version
	value   []byte
	deleted bool
	prev    *version
}

// at returns the record visible at version v — the newest one at or below v,
// walking from the receiver — or nil. Chains are short (GC keeps them pruned)
// and the common read is of the latest. A nil receiver is an empty chain.
func (r *version) at(v core.Version) *version {
	for r != nil && r.version > v {
		r = r.prev
	}
	return r
}

// liveAt is at for readers of values: nil also when the key is deleted at v.
func (r *version) liveAt(v core.Version) *version {
	if r = r.at(v); r != nil && r.deleted {
		return nil
	}
	return r
}

// Stats reports store counters; the efficiency experiment (E10) uses
// BytesWritten as the store's hard-state write volume.
type Stats struct {
	Commits      int64
	Keys         int
	VersionsHeld int64
	BytesWritten int64
	Horizon      core.Version
	Version      core.Version
}

// Store is the MVCC store. All methods are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	keys    *btree
	version core.Version // TSO: last committed version
	horizon core.Version // snapshot reads below this fail with ErrVersionGCed

	commits      int64
	versionsHeld int64
	bytesWritten int64

	// taps receive the CDC feed. Emission happens while holding mu, which
	// serializes events in commit order — exactly the per-key version-order
	// guarantee core.Ingester requires. Real systems use a commit log; the
	// lock is this simulator's commit log.
	taps []tap

	// batch and sub are per-commit CDC scratch buffers, reused under mu.
	// Ingesters must not retain the slices (the AppendBatch contract).
	batch, sub []core.ChangeEvent

	// tx is the transaction scratch, reused across Commit calls under mu:
	// the write slice is cleared in place rather than reallocated, so a
	// steady-state commit allocates, per written key, the value copy the
	// transaction makes and the version record it installs.
	tx Tx

	// tracer, when non-nil, samples committed events at the source: the
	// commit under mu is this store's StageCommit instant.
	tracer *trace.Tracer
}

type tap struct {
	id  int
	ing core.Ingester
	ci  core.CommitIngester // ing's commit path, nil when it has none
	rng keyspace.Range
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{keys: newBtree()}
}

var _ core.CursorSnapshotter = (*Store)(nil)

// SetTracer installs (or removes, with nil) the tracer that samples this
// store's commits. Install the same tracer in the downstream watch system so
// one trace spans commit→deliver.
func (s *Store) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// Tx is an open transaction. It provides read-your-writes semantics over the
// store's latest state; all writes commit atomically at a single version.
// Transactions are serializable: the store runs one writer at a time. A Tx
// is valid only inside its Commit callback — the store reuses the underlying
// scratch for the next transaction, so callers must not retain it.
type Tx struct {
	s      *Store
	writes []write // one per written key, in first-write order
}

// write is a transaction's last mutation of one key.
type write struct {
	key keyspace.Key
	mut core.Mutation
}

// Get reads a key inside the transaction (uncommitted writes are visible).
func (tx *Tx) Get(k keyspace.Key) ([]byte, bool) {
	if i, ok := tx.lookup(k); ok {
		m := tx.writes[i].mut
		return m.Value, m.Op != core.OpDelete
	}
	if r := tx.s.keys.find(k).liveAt(tx.s.version); r != nil {
		return r.value, true
	}
	return nil, false
}

// Put writes a key inside the transaction.
func (tx *Tx) Put(k keyspace.Key, v []byte) {
	tx.set(k, core.Mutation{Op: core.OpPut, Value: append([]byte(nil), v...)})
}

// Delete removes a key inside the transaction.
func (tx *Tx) Delete(k keyspace.Key) {
	tx.set(k, core.Mutation{Op: core.OpDelete})
}

func (tx *Tx) set(k keyspace.Key, m core.Mutation) {
	if i, seen := tx.lookup(k); seen {
		tx.writes[i].mut = m
		return
	}
	tx.writes = append(tx.writes, write{key: k, mut: m})
}

// lookup returns the position of k's write, if the transaction wrote k. It
// scans: the store's transactions write a few keys each.
func (tx *Tx) lookup(k keyspace.Key) (int, bool) {
	for i := range tx.writes {
		if tx.writes[i].key == k {
			return i, true
		}
	}
	return 0, false
}

// Commit runs fn in a serializable transaction and atomically applies its
// writes at a fresh TSO version, which it returns. If fn returns an error the
// transaction aborts with no effect.
func (s *Store) Commit(fn func(tx *Tx) error) (core.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := &s.tx
	tx.s = s
	tx.writes = tx.writes[:0]
	if err := fn(tx); err != nil {
		return core.NoVersion, fmt.Errorf("%w: %v", ErrTxnAborted, err)
	}
	return s.applyLocked(tx.writes), nil
}

// Put writes a single key outside any explicit transaction.
func (s *Store) Put(k keyspace.Key, v []byte) core.Version {
	ver, _ := s.Commit(func(tx *Tx) error { tx.Put(k, v); return nil })
	return ver
}

// Delete removes a single key.
func (s *Store) Delete(k keyspace.Key) core.Version {
	ver, _ := s.Commit(func(tx *Tx) error { tx.Delete(k); return nil })
	return ver
}

// applyLocked installs the writes at the next version and emits CDC.
func (s *Store) applyLocked(writes []write) core.Version {
	s.version++
	v := s.version
	s.commits++
	tapped := len(s.taps) > 0
	s.batch = s.batch[:0]
	for i := range writes {
		k, m := writes[i].key, writes[i].mut
		n := s.keys.getOrCreate(k)
		n.head = &version{version: v, value: m.Value, deleted: m.Op == core.OpDelete, prev: n.head}
		s.versionsHeld++
		s.bytesWritten += int64(len(k) + len(m.Value) + 16) // 16: version + flags overhead
		if tapped {
			ev := core.ChangeEvent{Key: k, Mut: m, Version: v}
			if s.tracer.Enabled() {
				ev.Trace = s.tracer.Begin(k, uint64(v))
			}
			s.batch = append(s.batch, ev)
		}
	}
	// CDC emission, in commit order, then a progress mark: with the commit
	// lock held, every change at or below v has been emitted, so the
	// progress claim is exact. The whole commit goes out as one entry per
	// tap that takes commits — one synchronization round-trip into the
	// watch system per commit — and as one batch plus the mark otherwise.
	if len(s.batch) > 0 {
		for _, t := range s.taps {
			out := s.batch
			for i := range s.batch {
				if !t.rng.Contains(s.batch[i].Key) {
					// Slow path: the tap sees only a slice of the commit.
					s.sub = s.sub[:0]
					for j := range s.batch {
						if t.rng.Contains(s.batch[j].Key) {
							s.sub = append(s.sub, s.batch[j])
						}
					}
					out = s.sub
					break
				}
			}
			if len(out) == 0 {
				continue
			}
			p := core.ProgressEvent{Range: t.rng, Version: v}
			if t.ci != nil {
				_ = t.ci.AppendCommit(out, p)
				continue
			}
			_ = t.ing.AppendBatch(out)
			_ = t.ing.Progress(p)
		}
	}
	return v
}

// EmitProgress pushes the current version as progress over r to all taps
// whose range overlaps r. Stores do this periodically so that watchers'
// frontiers advance even when no keys in their range are changing.
func (s *Store) EmitProgress(r keyspace.Range) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.taps {
		clipped := t.rng.Intersect(r)
		if clipped.Empty() {
			continue
		}
		_ = t.ing.Progress(core.ProgressEvent{Range: clipped, Version: s.version})
	}
}

// AttachCDC registers ing to receive all future change events for keys in r,
// with a progress event after each commit — folded into one call when ing
// is a core.CommitIngester. It returns a detach function.
// This is the producer-store half of Figure 4: the store conveys its change
// feed into an external watch system through the Ingester contract. An ing
// that implements core.FeedStart is told the current version first, under
// the commit lock, so it knows which history it will never see.
func (s *Store) AttachCDC(r keyspace.Range, ing core.Ingester) (detach func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs, ok := ing.(core.FeedStart); ok {
		fs.FeedStartsAfter(s.version)
	}
	id := 0
	if n := len(s.taps); n > 0 {
		id = s.taps[n-1].id + 1
	}
	ci, _ := ing.(core.CommitIngester)
	s.taps = append(s.taps, tap{id: id, ing: ing, ci: ci, rng: r})
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, t := range s.taps {
			if t.id == id {
				s.taps = append(s.taps[:i], s.taps[i+1:]...)
				return
			}
		}
	}
}

// readableLocked reports ErrVersionGCed for a read below the GC horizon.
// Caller holds mu.
func (s *Store) readableLocked(at core.Version) error {
	if at < s.horizon {
		return fmt.Errorf("%w: %v < %v", ErrVersionGCed, at, s.horizon)
	}
	return nil
}

// Get returns the value of k at version at (0 = latest), the version that
// wrote it, and whether the key exists at that snapshot.
func (s *Store) Get(k keyspace.Key, at core.Version) ([]byte, core.Version, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if at == core.NoVersion {
		at = s.version
	}
	if err := s.readableLocked(at); err != nil {
		return nil, 0, false, err
	}
	r := s.keys.find(k).liveAt(at)
	if r == nil {
		return nil, 0, false, nil
	}
	return r.value, r.version, true, nil
}

// Scan returns the live entries of r at version at (0 = latest) in key
// order, up to limit (0 = unlimited).
func (s *Store) Scan(r keyspace.Range, at core.Version, limit int) ([]core.Entry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if at == core.NoVersion {
		at = s.version
	}
	return s.scanLocked(r, at, limit)
}

// SnapshotRange implements core.Snapshotter: a consistent snapshot of r at
// the current version, pinned and read in one critical section so that no
// commit-then-GC can slip between the two.
func (s *Store) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := s.scanLocked(r, s.version, 0)
	if err != nil {
		return nil, 0, err
	}
	return entries, s.version, nil
}

func (s *Store) scanLocked(r keyspace.Range, at core.Version, limit int) ([]core.Entry, error) {
	if err := s.readableLocked(at); err != nil {
		return nil, err
	}
	var out []core.Entry
	if n := s.boundLocked(r); n > 0 {
		if limit > 0 {
			n = min(n, limit)
		}
		out = make([]core.Entry, 0, n)
	}
	return s.collectLocked(r, at, out, limit), nil
}

// boundLocked is an upper bound on the live entries of r at any version, or 0
// when none is known cheaply: the key count for the whole keyspace, nothing
// for a sub-range (the B+tree counts keys only at its root, and the key count
// would over-reserve a narrow range by orders of magnitude). Caller holds mu.
func (s *Store) boundLocked(r keyspace.Range) int {
	if r.ContainsRange(keyspace.Full()) {
		return s.keys.size
	}
	return 0
}

// collectLocked is the one range walk under Scan, SnapshotRange and the
// snapshot cursor: it appends to out the live entries of r at version at, in
// key order, and returns as soon as limit have been added (limit <= 0: no
// bound). Values alias the version chain — committed versions are immutable.
// Caller holds mu.
func (s *Store) collectLocked(r keyspace.Range, at core.Version, out []core.Entry, limit int) []core.Entry {
	base := len(out)
	s.keys.ascend(r, func(n *slot) bool {
		rec := n.head.liveAt(at)
		if rec == nil {
			return true
		}
		out = append(out, core.Entry{Key: n.key, Value: rec.value, Version: rec.version})
		return limit <= 0 || len(out)-base < limit
	})
	return out
}

// SnapshotCursor implements core.CursorSnapshotter: a snapshot of r served a
// chunk per Next instead of materialised. The first Next pins the current
// version and reads the first chunk in one critical section; every Next
// holds the read lock only for its own chunk, re-seeks from the last key it
// returned, and re-checks the pinned version against the GC horizon — so a
// GCBefore past the pin mid-stream ends the stream with ErrVersionGCed, and
// commits between chunks are invisible to it, never a torn snapshot.
func (s *Store) SnapshotCursor(r keyspace.Range) core.SnapshotCursor {
	return &snapCursor{s: s, rest: r}
}

type snapCursor struct {
	s      *Store
	rest   keyspace.Range // what is left to read
	pinned bool
	at     core.Version
	bound  int
}

func (c *snapCursor) Next(buf []core.Entry) ([]core.Entry, bool, error) {
	s := c.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !c.pinned {
		c.pinned, c.at, c.bound = true, s.version, s.boundLocked(c.rest)
	}
	if err := s.readableLocked(c.at); err != nil {
		return nil, false, err
	}
	// A full chunk does not look ahead for a further live entry (that walk
	// is unbounded over tombstones): the stream may end on an empty chunk.
	limit := max(cap(buf), 1)
	out := s.collectLocked(c.rest, c.at, buf[:0], limit)
	done := len(out) < limit
	if done {
		c.rest = keyspace.Range{}
	} else {
		c.rest.Low = out[len(out)-1].Key.Next()
	}
	return out, done, nil
}

func (c *snapCursor) At() core.Version { return c.at }
func (c *snapCursor) Bound() int       { return c.bound }

// ValueAt returns the value of k exactly as of version v — the oracle the
// consistency checkers use. ok is false when the key had no live value at v.
func (s *Store) ValueAt(k keyspace.Key, v core.Version) (val []byte, ok bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.readableLocked(v); err != nil {
		return nil, false, err
	}
	r := s.keys.find(k).liveAt(v)
	if r == nil {
		return nil, false, nil
	}
	return r.value, true, nil
}

// CurrentVersion returns the last committed version.
func (s *Store) CurrentVersion() core.Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// GCBefore discards version history no longer needed to serve snapshots at
// or above v, and raises the horizon to v. For each key the newest version
// at or below v is retained (it is still visible at v) and the chain is cut
// behind it; fully deleted keys whose tombstone predates v are dropped
// entirely. Nothing is allocated, and values already handed to a reader stay
// intact: only prev links change.
func (s *Store) GCBefore(v core.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.version {
		v = s.version
	}
	if v <= s.horizon {
		return
	}
	s.horizon = v
	s.keys.ascend(keyspace.Full(), func(n *slot) bool {
		// Everything older than the newest record at or below v is invisible
		// to any snapshot >= v.
		keep := n.head.at(v)
		if keep == nil {
			return true
		}
		for r := keep.prev; r != nil; r = r.prev {
			s.versionsHeld--
		}
		keep.prev = nil
		// A lone tombstone below the horizon serves no snapshot.
		if keep == n.head && keep.deleted {
			s.versionsHeld--
			n.head = nil
		}
		return true
	})
}

// Stats returns store counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Commits:      s.commits,
		Keys:         s.keys.size,
		VersionsHeld: s.versionsHeld,
		BytesWritten: s.bytesWritten,
		Horizon:      s.horizon,
		Version:      s.version,
	}
}
