package core

import (
	"sync"
	"sync/atomic"

	"unbundle/internal/govern"
)

// ringState is the delivery queue's lifecycle.
type ringState uint8

const (
	// ringOpen accepts events.
	ringOpen ringState = iota
	// ringLagged holds only the pending resync; further events are dropped —
	// they are covered by the resync's recovery snapshot, which is always
	// taken after the resync is observed.
	ringLagged
	// ringCancelled accepts nothing and wakes the dispatcher to exit.
	ringCancelled
)

// ring is a watcher's delivery queue. It carries change events only, held by
// value in a slice that enqueueRun appends to and the dispatcher takes whole,
// swapping in the previous batch's array as the new queue: a steady stream
// allocates nothing, and a watcher that never sees a live event never
// allocates a queue at all (retained-window replay streams from pinned
// segments, not through the ring; see runReplay).
//
// Progress holds no slot. The frontier is a high-water mark the hub already
// keeps, so Progress only sets the moved flag and the dispatcher reads the
// frontier itself (see hubWatcher.run for why that never claims ahead of an
// event). A lag-out is ring state too: the pending resync replaces the queue.
type ring struct {
	mu   sync.Mutex
	cond *sync.Cond

	evs []ChangeEvent // queued events in enqueue order
	max int           // bound on len(evs); enqueueRun past it fails

	state     ringState
	resync    *ResyncEvent // pending resync, nil when none
	cancelled atomic.Bool  // mirrors state==ringCancelled for lock-free checks
	// moved records that the frontier over the watcher's range may have
	// advanced since the dispatcher last read it.
	moved atomic.Bool

	touched uint64 // accepted events plus wakes that set moved
	high    int    // highwater since the last take

	// acct, when non-nil, is the governor's "rings" account: heldBytes — the
	// undelivered backlog's payload footprint — is charged on enqueue and
	// released on take/lag-out/stop, and is what the shed reliever ranks
	// watchers by. Payloads queued here share backing arrays with retained
	// segments, so the charge deliberately counts a slow watcher's backlog
	// at full weight — held backlog is exactly the cost shedding recovers.
	acct      *govern.Account
	heldBytes int64
}

func newRing(max int) *ring {
	r := &ring{max: max}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// enqueueRun appends the events of run above from — one interval's run of
// a fan-out walk — under one lock, with at most one signal and one governor
// charge. It returns how many it queued and false when the queue filled
// first (the caller lags the watcher out). moved also marks the frontier as
// moving, for an ingest call that raises it in the same lock hold: the wake
// that follows then costs one atomic load. Runs offered to a lagged or
// cancelled ring are dropped and reported true: a lagged watcher's pending
// resync covers them, and a cancelled watcher is going away.
func (r *ring) enqueueRun(run []ChangeEvent, from Version, moved bool) (int, bool) {
	r.mu.Lock()
	if r.state != ringOpen {
		r.mu.Unlock()
		return 0, true
	}
	n0, ok := len(r.evs), true
	var fp int64
	for i := range run {
		ev := &run[i]
		if ev.Version <= from {
			continue
		}
		if len(r.evs) >= r.max {
			ok = false
			break
		}
		r.evs = append(r.evs, *ev)
		fp += evFootprint(ev)
	}
	n := len(r.evs) - n0
	if n > 0 {
		r.touched += uint64(n)
		r.high = max(r.high, len(r.evs))
		if moved {
			r.moved.Store(true)
		}
		if n0 == 0 {
			r.cond.Signal()
		}
	}
	if r.acct == nil {
		fp = 0
	}
	r.heldBytes += fp
	r.mu.Unlock()
	r.acct.Charge(fp)
	return n, ok
}

// wake tells the dispatcher the frontier moved. It is idempotent: a set flag
// costs one atomic load, and only the call that sets it takes the lock.
func (r *ring) wake() { r.raise(1) }

// nudge is wake for a reader whose log grew: the dispatcher has
// something to capture, but nothing reached the ring, so it is not a touch.
func (r *ring) nudge() { r.raise(0) }

func (r *ring) raise(touch uint64) {
	if r.moved.Load() || !r.moved.CompareAndSwap(false, true) {
		return
	}
	r.mu.Lock()
	r.touched += touch
	r.cond.Signal()
	r.mu.Unlock()
}

// lagOut drops everything queued and leaves the resync pending in its place;
// a second lag-out (a wipe) replaces a resync not yet taken. Events already
// taken cannot be unsent, but per-key prefix delivery remains intact:
// delivery order equals enqueue order. No-op on a cancelled ring.
func (r *ring) lagOut(rs ResyncEvent) {
	r.mu.Lock()
	if r.state == ringCancelled {
		r.mu.Unlock()
		return
	}
	r.state = ringLagged
	r.evs = nil // shed the array: no event will be queued again
	r.resync = &rs
	freed := r.heldBytes
	r.heldBytes = 0
	r.cond.Signal()
	r.mu.Unlock()
	r.acct.Release(freed)
}

// stop cancels the ring: the dispatcher wakes and exits, and all further
// enqueues are dropped.
func (r *ring) stop() {
	r.mu.Lock()
	r.state = ringCancelled
	r.cancelled.Store(true)
	r.evs, r.resync = nil, nil
	freed := r.heldBytes
	r.heldBytes = 0
	r.cond.Broadcast()
	r.mu.Unlock()
	r.acct.Release(freed)
}

// isCancelled is the lock-free mid-dispatch check.
func (r *ring) isCancelled() bool { return r.cancelled.Load() }

// wait blocks until there are events to take, a resync to deliver, a
// frontier move to announce or a reader's log to capture. It reports false
// once the ring is cancelled.
func (r *ring) wait() bool {
	r.mu.Lock()
	for len(r.evs) == 0 && r.resync == nil && !r.moved.Load() && r.state != ringCancelled {
		r.cond.Wait()
	}
	ok := r.state != ringCancelled
	r.mu.Unlock()
	return ok
}

// take hands over every queued event, leaving spare (emptied) as the queue,
// together with the pending resync, if any, and the highwater since the last
// take. open is false once the ring has been lagged out or cancelled: events
// queued before the lag-out are gone, so a frontier read before the take may
// no longer be announced.
func (r *ring) take(spare []ChangeEvent) (evs []ChangeEvent, rs *ResyncEvent, high int, open bool) {
	r.mu.Lock()
	evs, r.evs = r.evs, spare[:0]
	rs, r.resync = r.resync, nil
	high, r.high = r.high, 0
	open = r.state == ringOpen
	freed := r.heldBytes
	r.heldBytes = 0
	r.mu.Unlock()
	r.acct.Release(freed)
	return evs, rs, high, open
}

// touches returns how many events the ring accepted plus how many frontier
// wakes reached it — used by tests to prove an ingest path never touched
// this watcher.
func (r *ring) touches() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.touched
}

// held returns the queued backlog's governor footprint — what the shed
// reliever ranks watchers by. Zero when the ring is ungoverned.
func (r *ring) held() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.heldBytes
}

// depth returns the number of events queued.
func (r *ring) depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.evs)
}
