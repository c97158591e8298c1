package core

import (
	"math"
	"slices"
	"sync/atomic"
)

// A watcher whose range covers a whole shard does not need that shard's
// events copied into its ring: it wants every one of them, and the shard's
// retention chain already holds them once, in arrival order, in slots that
// are written once and never rewritten (segment.go). Such a watcher is a
// reader of the shard — a position in the chain — instead of an entry in
// the shard's range index. An append does no per-reader work; once per
// ingest call the shard lag-checks its readers and wakes them, and each
// reader's dispatcher captures everything between its position and the tail
// under the shard lock and streams it outside the lock (see hubWatcher.run).
//
// A reader pins every segment from its position to the tail, so eviction
// from the chain never cuts a reader short; what bounds a reader is the
// watcher's buffer, checked per batch (publishLocked). A narrow watcher —
// one whose range only clips a shard — keeps its ring for that shard: the
// chain interleaves keys it does not want, and filtering them per dispatch
// would cost it more than the ring copy does.
type reader struct {
	w *hubWatcher
	s *hubShard

	// segs are the segments from the reader's position to the shard's tail,
	// each holding one reference for the reader; off indexes the first
	// unread event of segs[0]. gone marks a reader not in its shard — not
	// yet added, or dropped (lag-out, cancel, wipe) with its pins released.
	// All three are guarded by s.mu.
	segs []*segment
	off  int
	gone bool

	// pos is the shard log position (its append count) of the reader's
	// first unread event. Written under s.mu, read atomically by lag checks
	// in other shards and by the lag radar.
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

// newReaders gives w one reader per shard its range covers, before w is
// registered anywhere: w.readers never changes once another shard can see
// it. A reader reads nothing and counts no backlog until its shard adds it.
func (w *hubWatcher) newReaders(shards []*hubShard) {
	for _, s := range shards {
		if w.rng.Intersect(s.rng) == s.rng {
			r := &reader{w: w, s: s, gone: true}
			r.pos.Store(math.MaxInt64)
			w.readers = append(w.readers, r)
		}
	}
}

// addReaderLocked registers w's reader of s positioned at the tail: the
// retained chain before it is w's replay, everything after it is w's live
// stream. Caller holds s.mu.
func (s *hubShard) addReaderLocked(h *Hub, w *hubWatcher) {
	for _, r := range w.readers {
		if r.s != s {
			continue
		}
		tail := s.tailLocked(h)
		tail.acquire()
		r.segs, r.off, r.gone = append(r.segs, tail), len(tail.evs), false
		r.pos.Store(s.appends)
		s.readers = append(s.readers, r)
		return
	}
}

// dropReaderLocked removes w's reader from s, if it has one, and releases
// its pins: a wedged or departed watcher holds no segment past this point.
// Caller holds s.mu.
func (s *hubShard) dropReaderLocked(h *Hub, w *hubWatcher) {
	for i, r := range s.readers {
		if r.w != w {
			continue
		}
		s.readers = slices.Delete(s.readers, i, i+1)
		for _, g := range r.segs {
			g.release(&h.segPool)
		}
		r.segs, r.gone = nil, true
		r.pos.Store(s.appends)
		return
	}
}

// pinTailLocked gives every reader of s a reference on the tail the chain
// just opened. Caller holds s.mu.
func (s *hubShard) pinTailLocked(tail *segment) {
	for _, r := range s.readers {
		tail.acquire()
		r.segs = append(r.segs, tail)
	}
}

// publishLocked ends one ingest call's work in s: it publishes the log
// length, then — once per call, never per event — lag-checks each reader
// when the log grew and wakes it: a touch when the frontier moved, a nudge
// when only the log did. Caller holds s.mu.
func (s *hubShard) publishLocked(h *Hub, grew, moved bool, fx *ingestFx) {
	s.logLen.Store(s.appends)
	// Backwards, because a lag-out removes the reader from s.readers.
	for i := len(s.readers) - 1; i >= 0; i-- {
		w := s.readers[i].w
		if w.lagged.Load() {
			continue
		}
		if grew && w.backlog() > h.cfg.WatcherBuffer {
			fx.appendOverflow++
			h.lagOutLocked(w, s, "watcher buffer overflow", 0, fx)
			continue
		}
		if moved {
			w.q.wake()
		} else {
			w.q.nudge()
		}
	}
}

// unread is the number of events between the reader's position and its
// shard's published log length.
func (r *reader) unread() int {
	return max(int(r.s.logLen.Load()-r.pos.Load()), 0)
}

// unread sums the watcher's readers' unread events.
func (w *hubWatcher) unread() int {
	n := 0
	for _, r := range w.readers {
		n += r.unread()
	}
	return n
}

// backlog is the watcher's undelivered event count — its readers' unread
// events plus its ring's depth — the quantity WatcherBuffer bounds.
func (w *hubWatcher) backlog() int {
	n := w.unread()
	if w.ringed {
		n += w.q.depth()
	}
	return n
}

// capture appends the reader's unread events to caps as pinned pieces and
// moves the reader to the tail. The capture owns one reference per piece:
// the reader's own pin on each fully read segment passes to it, and the
// tail gets an extra one. A capture is therefore a take — it stays readable
// and is delivered whole even if the watcher is lagged out or its reader
// dropped before delivery ends. It returns the number of deliverable events,
// which the shard counts here, before any callback runs.
func (r *reader) capture(h *Hub, caps []capture) ([]capture, int) {
	s := r.s
	from := r.w.from
	s.mu.Lock()
	if r.gone || r.w.lagged.Load() {
		s.mu.Unlock()
		return caps, 0
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
		if g.minVer <= from { // an event at or below the cut may sit in evs
			n = 0
			for k := range evs {
				if evs[k].Version > from {
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
	r.pos.Store(s.appends)
	s.delivered += int64(total)
	s.mu.Unlock()
	return caps, total
}

// captureAll captures every live reader of w, in shard order, and counts the
// events in the hub's delivered total before the callback sees them.
func (w *hubWatcher) captureAll(caps []capture) []capture {
	total := 0
	for _, r := range w.readers {
		var n int
		caps, n = r.capture(w.hub, caps)
		total += n
	}
	if total > 0 {
		w.hub.met.delivered.Add(int64(total))
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
