package core

import (
	"sync"
	"sync/atomic"

	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
)

// itemKind tags which delivery an item carries.
type itemKind uint8

const (
	// kindVoid (the zero item) is a superseded progress mark: it holds its
	// slot until the next drain, which drops it.
	kindVoid itemKind = iota
	kindEvent
	kindProgress
	kindResync
)

// item is one queued delivery for a watcher. Items are held by value: the
// live fanout copies events straight into ring slots, so delivery costs no
// per-event heap allocation. (Retained-window replay does not pass through
// the ring at all — it streams zero-copy from pinned retention segments
// before the dispatch goroutine starts draining; see runReplay.)
type item struct {
	kind   itemKind
	ev     ChangeEvent
	prog   ProgressEvent
	resync ResyncEvent
}

// ringState is the delivery queue's lifecycle.
type ringState uint8

const (
	// ringOpen accepts events, progress and resyncs.
	ringOpen ringState = iota
	// ringLagged holds only the pending resync; further deliveries are
	// dropped — they are covered by the resync's recovery snapshot, which is
	// always taken after the resync is observed.
	ringLagged
	// ringCancelled accepts nothing and wakes the dispatcher to exit.
	ringCancelled
)

// ring is a watcher's delivery queue: a growable circular buffer, bounded at
// max, drained in whole batches by the watcher's run goroutine. Compared to
// the append-one/signal-one slice+cond queue it replaces, it
//
//   - never allocates per enqueued item (slots are reused in place; the
//     backing array doubles geometrically up to max instead of being
//     reallocated by append),
//   - coalesces queued ProgressEvents for the same clipped range — only the
//     newest frontier claim matters, so a burst of progress ticks occupies
//     one slot instead of filling the buffer — without ever letting a claim
//     move ahead of an event queued before it (see pushLocked),
//   - tracks its highwater locally and leaves publishing it to the drain
//     side, keeping metrics entirely off the enqueue path.
type ring struct {
	mu   sync.Mutex
	cond *sync.Cond

	buf   []item
	start int // index of the oldest queued item
	n     int // occupied slot count, voided ones included
	max   int // bound on live items; enqueue past it fails (resyncs bypass)

	state     ringState
	cancelled atomic.Bool // mirrors state==ringCancelled for lock-free checks

	enqueued uint64 // total items accepted (including coalesced updates)
	high     int    // highwater since the last drain

	// progAt maps a clipped progress range to the absolute sequence number of
	// its queued item, enabling O(1) coalescing. Sequence numbers (headSeq +
	// offset) survive buffer growth and rotation.
	progAt  map[keyspace.Range]uint64
	headSeq uint64 // absolute sequence number of buf[start]
	// barrier is one past the sequence number of the newest queued item that
	// is not a progress mark: a mark at or beyond it has nothing but marks
	// behind it.
	barrier uint64
	voided  int // kindVoid slots among the n queued; they do not count against max

	// acct, when non-nil, is the governor's "rings" account: heldBytes — the
	// undelivered backlog's payload footprint — is charged on enqueue and
	// released on drain/lag-out/stop, and is what the shed reliever ranks
	// watchers by. Payloads queued here share backing arrays with retained
	// segments, so the charge deliberately counts a slow watcher's backlog
	// at full weight — held backlog is exactly the cost shedding recovers.
	acct      *govern.Account
	heldBytes int64
}

// itemBytes is the governor footprint of one queued item: event payloads at
// full weight, progress/resync marks at the flat struct overhead.
func itemBytes(it *item) int64 {
	if it.kind == kindEvent {
		return int64(len(it.ev.Key)+len(it.ev.Mut.Value)) + segEventOverhead
	}
	return segEventOverhead
}

// ringMinCap is the initial backing-array size; queues grow geometrically
// from here, so an idle watcher with a huge configured buffer stays small.
const ringMinCap = 64

func newRing(max int) *ring {
	r := &ring{max: max}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// growLocked doubles the backing array (bounded by max), rewriting the
// circular contents in order.
func (r *ring) growLocked() {
	newCap := len(r.buf) * 2
	if newCap < ringMinCap {
		newCap = ringMinCap
	}
	if newCap > r.max {
		newCap = r.max
	}
	nb := make([]item, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	r.buf = nb
	r.start = 0
}

// compactLocked drops the voided slots in place, closing the gaps toward the
// head, and re-points progAt and barrier at the items that moved.
func (r *ring) compactLocked() {
	live := 0
	for i := 0; i < r.n; i++ {
		it := &r.buf[(r.start+i)%len(r.buf)]
		switch it.kind {
		case kindVoid:
			continue
		case kindProgress:
			r.progAt[it.prog.Range] = r.headSeq + uint64(live)
		default:
			r.barrier = r.headSeq + uint64(live) + 1
		}
		if live != i {
			r.buf[(r.start+live)%len(r.buf)] = *it
			*it = item{}
		}
		live++
	}
	r.n, r.voided = live, 0
}

// pushLocked appends one item, reporting false when max live items are queued.
//
// A progress mark supersedes the queued mark for the same clipped range. With
// nothing but marks queued behind the old one it is raised in place. With an
// event behind it, raising in place would tell the watcher "complete through
// v" ahead of that event, so the old slot is voided and the new mark queues
// at the tail, never below the version it replaces.
func (r *ring) pushLocked(it item) bool {
	if it.kind == kindProgress {
		if pos, ok := r.progAt[it.prog.Range]; ok && pos >= r.headSeq {
			slot := &r.buf[(r.start+int(pos-r.headSeq))%len(r.buf)]
			if slot.kind == kindProgress && slot.prog.Range == it.prog.Range {
				if pos >= r.barrier {
					if it.prog.Version > slot.prog.Version {
						slot.prog.Version = it.prog.Version
					}
					r.enqueued++
					return true
				}
				if slot.prog.Version > it.prog.Version {
					it.prog.Version = slot.prog.Version
				}
				*slot = item{}
				r.voided++
				if r.acct != nil {
					r.heldBytes -= segEventOverhead
				}
			}
		}
	}
	if r.n-r.voided >= r.max {
		return false
	}
	if r.n == len(r.buf) {
		// Voided slots do not count against max; reclaim them once they are
		// half the array (amortised O(1)) or the array cannot grow.
		if r.voided > 0 && (r.voided*2 >= r.n || len(r.buf) >= r.max) {
			r.compactLocked()
		} else {
			r.growLocked()
		}
	}
	pos := r.start + r.n
	if pos >= len(r.buf) {
		pos -= len(r.buf)
	}
	r.buf[pos] = it
	if it.kind == kindProgress {
		if r.progAt == nil {
			r.progAt = make(map[keyspace.Range]uint64, 4)
		}
		r.progAt[it.prog.Range] = r.headSeq + uint64(r.n)
	} else {
		r.barrier = r.headSeq + uint64(r.n) + 1
	}
	if r.acct != nil {
		r.heldBytes += itemBytes(&it)
	}
	r.n++
	r.enqueued++
	if live := r.n - r.voided; live > r.high {
		r.high = live
	}
	return true
}

// enqueue adds one item; it reports false when the queue is full (the caller
// lags the watcher out). Items offered to a lagged or cancelled ring are
// dropped and reported true: a lagged watcher's pending resync covers them,
// and a cancelled watcher is going away.
func (r *ring) enqueue(it item) bool {
	r.mu.Lock()
	if r.state != ringOpen {
		r.mu.Unlock()
		return true
	}
	before := r.heldBytes
	ok := r.pushLocked(it)
	if ok && r.n == 1 {
		r.cond.Signal()
	}
	delta := r.heldBytes - before
	r.mu.Unlock()
	r.acct.Charge(delta)
	return ok
}

// enqueueBatch adds items under one lock acquisition. It reports how many
// were accepted and whether all fit; on overflow the accepted prefix stays
// queued (the caller lags the watcher out, which replaces the queue anyway).
func (r *ring) enqueueBatch(items []item) (accepted int, ok bool) {
	if len(items) == 0 {
		return 0, true
	}
	r.mu.Lock()
	if r.state != ringOpen {
		r.mu.Unlock()
		return 0, true
	}
	before := r.heldBytes
	wasEmpty := r.n == 0
	for i := range items {
		if !r.pushLocked(items[i]) {
			if wasEmpty && r.n > 0 {
				r.cond.Signal()
			}
			delta := r.heldBytes - before
			r.mu.Unlock()
			r.acct.Charge(delta)
			return i, false
		}
	}
	if wasEmpty && r.n > 0 {
		r.cond.Signal()
	}
	delta := r.heldBytes - before
	r.mu.Unlock()
	r.acct.Charge(delta)
	return len(items), true
}

// lagOut drops everything queued and replaces it with the resync. Events
// already dispatched cannot be unsent, but per-key prefix delivery remains
// intact: delivery order equals enqueue order. No-op on a cancelled ring.
func (r *ring) lagOut(rs ResyncEvent) {
	r.mu.Lock()
	if r.state == ringCancelled {
		r.mu.Unlock()
		return
	}
	r.state = ringLagged
	// Shed the (possibly grown) backing array: the resync is the last thing
	// this queue will ever carry.
	r.buf = []item{{kind: kindResync, resync: rs}}
	r.start = 0
	r.n, r.voided = 1, 0
	r.headSeq += uint64(r.n)
	r.barrier = r.headSeq + 1
	r.progAt = nil
	var delta int64
	if r.acct != nil {
		delta = r.heldBytes - segEventOverhead // backlog dropped, resync queued
		r.heldBytes = segEventOverhead
	}
	r.cond.Signal()
	r.mu.Unlock()
	r.acct.Release(delta)
}

// reopen re-arms a lagged ring so a fresh resync can be queued (state wipes
// resync every watcher, including previously lagged ones).
func (r *ring) reopen() {
	r.mu.Lock()
	if r.state == ringLagged {
		r.state = ringOpen
	}
	r.mu.Unlock()
}

// stop cancels the ring: the dispatcher wakes and exits, and all further
// enqueues are dropped.
func (r *ring) stop() {
	r.mu.Lock()
	r.state = ringCancelled
	r.cancelled.Store(true)
	r.buf = nil
	r.start, r.n, r.voided = 0, 0, 0
	r.progAt = nil
	freed := r.heldBytes
	r.heldBytes = 0
	r.cond.Broadcast()
	r.mu.Unlock()
	r.acct.Release(freed)
}

// isCancelled is the lock-free mid-dispatch check.
func (r *ring) isCancelled() bool { return r.cancelled.Load() }

// drain blocks until items are queued or the ring is cancelled, then moves
// the whole backlog into dst (reused across calls) and returns it with the
// highwater observed since the last drain. ok is false once cancelled.
func (r *ring) drain(dst []item) (batch []item, high int, ok bool) {
	r.mu.Lock()
	for r.n == 0 && r.state != ringCancelled {
		r.cond.Wait()
	}
	if r.state == ringCancelled {
		r.mu.Unlock()
		return dst[:0], 0, false
	}
	// Move the backlog out as at most two contiguous copies, then zero the
	// vacated slots so the queue releases its payload references.
	dst = dst[:0]
	head := r.buf[r.start:]
	if len(head) > r.n {
		head = head[:r.n]
	}
	dst = append(dst, head...)
	for i := range head {
		head[i] = item{}
	}
	if rest := r.n - len(head); rest > 0 {
		tail := r.buf[:rest]
		dst = append(dst, tail...)
		for i := range tail {
			tail[i] = item{}
		}
	}
	if r.voided > 0 {
		// Drop superseded marks, so the event runs on either side of one
		// reach the callback as a single batch.
		live := dst[:0]
		for i := range dst {
			if dst[i].kind != kindVoid {
				live = append(live, dst[i])
			}
		}
		clear(dst[len(live):])
		dst = live
	}
	r.headSeq += uint64(r.n)
	r.start, r.n, r.voided = 0, 0, 0
	for k := range r.progAt {
		delete(r.progAt, k)
	}
	high = r.high
	r.high = 0
	freed := r.heldBytes
	r.heldBytes = 0
	r.mu.Unlock()
	r.acct.Release(freed)
	return dst, high, true
}

// enqueues returns the total accepted item count — used by tests to prove a
// fanout path never touched this watcher.
func (r *ring) enqueues() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enqueued
}

// held returns the queued backlog's governor footprint — what the shed
// reliever ranks watchers by. Zero when the ring is ungoverned.
func (r *ring) held() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heldBytes
}

// depth returns the number of live items queued.
func (r *ring) depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n - r.voided
}
