package core

import (
	"math"
	"slices"
	"sync/atomic"
)

// A full-range watcher does not need the hub's events copied into its
// ring: it wants every one of them, and the retention chain already holds
// them once, in arrival order, in slots that are written once and never
// rewritten (segment.go). Such a watcher is a reader of the chain — a
// position in it — instead of an entry in the hub's range index. An append
// does no per-reader work; once per ingest call the hub lag-checks its
// readers and wakes them, and each reader's dispatcher captures everything
// between its position and the tail under the hub lock and streams it
// outside the lock (see hubWatcher.run).
//
// A reader pins every segment from its position to the tail, so eviction
// from the chain never cuts a reader short; what bounds a reader is the
// watcher's buffer, checked per batch (publishLocked). A narrower watcher
// keeps its ring: the chain interleaves keys it does not want, and
// filtering them per dispatch would cost it more than the ring copy does.
type reader struct {
	w *hubWatcher

	// segs are the segments from the reader's position to the tail, each
	// holding one reference for the reader; off indexes the first unread
	// event of segs[0]. segs is empty while the reader is not in the hub —
	// not yet added, or dropped (lag-out, cancel, wipe) with its pins
	// released. Both are guarded by h.mu.
	segs []*segment
	off  int

	// pos is the log position (the hub's append count) of the reader's
	// first unread event. Written under h.mu, read atomically by the lag
	// radar.
	pos atomic.Int64
}

// capture is one piece of a reader's unread log, taken by its dispatcher:
// evs aliases the pinned segment, n counts the events in it past the
// watcher's cut version (len(evs) when all of them are).
type capture struct {
	seg *segment
	evs []ChangeEvent
	n   int
}

// newReader returns w's reader, not yet in the hub: it reads nothing and
// counts no backlog until addReaderLocked.
func newReader(w *hubWatcher) *reader {
	r := &reader{w: w}
	r.pos.Store(math.MaxInt64)
	return r
}

// addReaderLocked positions r at the tail: the retained chain before it is
// its watcher's replay, everything after it the live stream. Caller holds
// h.mu.
func (h *Hub) addReaderLocked(r *reader) {
	tail := h.tailLocked()
	tail.acquire()
	r.segs, r.off = append(r.segs, tail), len(tail.evs)
	r.pos.Store(h.appends)
	h.readers = append(h.readers, r)
}

// dropReaderLocked removes r from the hub, if it is in it, and releases its
// pins: a wedged or departed watcher holds no segment past this point.
// Caller holds h.mu.
func (h *Hub) dropReaderLocked(r *reader) {
	if len(r.segs) == 0 {
		return
	}
	if i := slices.Index(h.readers, r); i >= 0 {
		h.readers = slices.Delete(h.readers, i, i+1)
	}
	for _, g := range r.segs {
		g.release(&h.segPool)
	}
	r.segs = nil
	r.pos.Store(h.appends)
}

// pinTailLocked gives every reader a reference on the tail the chain just
// opened. Caller holds h.mu.
func (h *Hub) pinTailLocked(tail *segment) {
	for _, r := range h.readers {
		tail.acquire()
		r.segs = append(r.segs, tail)
	}
}

// publishLocked ends one ingest call's work: it publishes the log length,
// then — once per call, never per event — lag-checks each reader when the
// log grew and wakes it: a touch when the frontier moved, a nudge when only
// the log did. Caller holds h.mu.
func (h *Hub) publishLocked(grew, moved bool, fx *ingestFx) {
	h.logLen.Store(h.appends)
	// Backwards, because a lag-out removes the reader from h.readers.
	for i := len(h.readers) - 1; i >= 0; i-- {
		w := h.readers[i].w
		if w.lagged.Load() {
			continue
		}
		if grew && w.backlog() > h.cfg.WatcherBuffer {
			fx.appendOverflow++
			h.lagOutLocked(w, "watcher buffer overflow", 0)
			continue
		}
		if moved {
			w.q.wake()
		} else {
			w.q.nudge()
		}
	}
}

// unread is the number of events between the watcher's reader position and
// the hub's published log length; 0 for a ring watcher.
func (w *hubWatcher) unread() int {
	if w.rd == nil {
		return 0
	}
	return max(int(w.hub.logLen.Load()-w.rd.pos.Load()), 0)
}

// backlog is the watcher's undelivered event count — its reader's unread
// events or its ring's depth — the quantity WatcherBuffer bounds.
func (w *hubWatcher) backlog() int {
	if w.rd != nil {
		return w.unread()
	}
	return w.q.depth()
}

// capture appends the reader's unread events to caps as pinned pieces,
// moves the reader to the tail, and counts the events in the hub's
// delivered totals before the callback sees them. The capture owns one
// reference per piece: the reader's own pin on each fully read segment
// passes to it, and the tail gets an extra one. A capture is therefore a
// take — it stays readable and is delivered whole even if the watcher is
// lagged out or its reader dropped before delivery ends.
func (w *hubWatcher) capture(caps []capture) []capture {
	r, h := w.rd, w.hub
	if r == nil {
		return caps
	}
	h.mu.Lock()
	if len(r.segs) == 0 || w.lagged.Load() {
		h.mu.Unlock()
		return caps
	}
	total := 0
	last := len(r.segs) - 1
	for i, g := range r.segs {
		lo := 0
		if i == 0 {
			lo = r.off
		}
		evs := g.evs[lo:len(g.evs)]
		if len(evs) == 0 {
			if i < last {
				g.release(&h.segPool)
			}
			continue
		}
		n := len(evs)
		if g.minVer <= w.from { // an event at or below the cut may sit in evs
			n = 0
			for k := range evs {
				if evs[k].Version > w.from {
					n++
				}
			}
		}
		if i == last {
			g.acquire()
		}
		caps = append(caps, capture{seg: g, evs: evs, n: n})
		total += n
	}
	tail := r.segs[last]
	r.segs[0] = tail
	clear(r.segs[1:])
	r.segs = r.segs[:1]
	r.off = len(tail.evs)
	r.pos.Store(h.appends)
	h.delivered += int64(total)
	h.mu.Unlock()
	if total > 0 {
		h.met.delivered.Add(int64(total))
	}
	return caps
}

// releaseCaptures drops the pins a dispatch's captures hold.
func releaseCaptures(h *Hub, caps []capture) {
	for i := range caps {
		caps[i].seg.release(&h.segPool)
		caps[i] = capture{}
	}
}

// appendTo appends the capture's deliverable events to dst.
func (c *capture) appendTo(dst []ChangeEvent, from Version) []ChangeEvent {
	if c.n == len(c.evs) {
		return append(dst, c.evs...)
	}
	for k := range c.evs {
		if c.evs[k].Version > from {
			dst = append(dst, c.evs[k])
		}
	}
	return dst
}

// deliver hands one dispatch's events — the ring's take and the readers'
// captures — to the callback, and reports false once the watch is
// cancelled. An EventBatchCallback gets them as one run: a lone piece goes
// out as it lies (zero-copy from a pinned segment, or the ring's array), and
// several are joined into the dispatcher's join array first, so consecutive
// watchers of one connection hand the transport the same run. Otherwise
// they go one OnEvent at a time.
func (w *hubWatcher) deliver(evs []ChangeEvent, caps []capture) bool {
	if w.q.isCancelled() {
		return false
	}
	switch {
	case len(caps) == 0:
	case len(caps) == 1 && len(evs) == 0 && caps[0].n == len(caps[0].evs):
		evs = caps[0].evs
	default:
		join := append(w.join[:0], evs...)
		for i := range caps {
			join = caps[i].appendTo(join, w.from)
		}
		evs, w.join = join, join
	}
	ok := w.deliverRun(evs)
	if len(w.join) > 0 {
		clear(w.join) // release payload refs until the next join
		w.join = w.join[:0]
	}
	return ok
}
