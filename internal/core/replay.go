package core

import (
	"sort"
	"time"

	"unbundle/internal/keyspace"
	"unbundle/internal/trace"
)

// segView is one pinned slice of the hub's retention chain, snapshotted at
// watch registration: the events evs[lo:hi] of a segment whose refcount the
// view holds, to be filtered by the watcher's range and streamed by the
// dispatch goroutine with no lock held.
type segView struct {
	seg *segment
	// evs is the segment's event slice as captured under the hub lock.
	// The tail's evs *field* keeps moving with appends, so the view must
	// hold its own header: the slots below hi are written exactly once and
	// never again, making this snapshot safe to read lock-free.
	evs    []ChangeEvent
	lo, hi int
}

// snapshotReplayLocked pins the chain for a watcher registering with cut
// version from over r, appending one view per segment that may hold a
// matching event. The caller holds h.mu; the work here is O(segments) — a
// handful of pointer pins and index probes — regardless of how many events
// the replay will stream. Segments are skipped outright when their version
// bound proves nothing exceeds the cut or their key summary proves no
// overlap with r; a version-sorted segment additionally binary-
// searches the cut so the view starts at the first qualifying event.
func (h *Hub) snapshotReplayLocked(views []segView, r keyspace.Range, from Version) []segView {
	for _, g := range h.segs {
		lo, hi := g.trim, len(g.evs)
		if lo >= hi || g.maxVer <= from {
			continue
		}
		if !g.overlaps(r) {
			continue
		}
		if g.sorted && from >= g.minVer {
			evs := g.evs
			lo += sort.Search(hi-lo, func(i int) bool { return evs[lo+i].Version > from })
			if lo >= hi {
				continue
			}
		}
		g.acquire()
		views = append(views, segView{seg: g, evs: g.evs[:hi], lo: lo, hi: hi})
	}
	return views
}

// runReplay streams the watcher's pinned retained-history snapshot to its
// callback before the live loop starts, outside the hub lock.
// Delivery is zero-copy: a batch-capable callback receives contiguous
// sub-slices of the pinned segment arrays directly. The stream is bounded by
// the watcher's buffer size — exactly WatcherBuffer replayed events succeed;
// one more lags the watcher out with a resync, the same contract the live
// path enforces. Every pinned view is released whether or not it streamed.
func (w *hubWatcher) runReplay() {
	views := w.replay
	w.replay = nil
	if len(views) == 0 {
		return
	}
	h := w.hub
	start := time.Now()
	budget := h.cfg.WatcherBuffer
	streamed := 0
	overflowed := false
	for _, v := range views {
		if overflowed || w.lagged.Load() || w.q.isCancelled() {
			continue // keep going: every view below must still be released
		}
		n, over := w.streamView(v, budget-streamed)
		streamed += n
		overflowed = over
	}
	for _, v := range views {
		v.seg.release(&h.segPool)
	}
	if streamed > 0 {
		h.mu.Lock()
		h.delivered += int64(streamed)
		h.mu.Unlock()
		h.met.delivered.Add(int64(streamed))
		h.met.replayEvents.Add(int64(streamed))
	}
	h.met.replayLatency.ObserveDuration(time.Since(start))
	if overflowed {
		h.met.replayOverflow.Inc()
		h.mu.Lock()
		h.lagOutLocked(w, "retained-window replay exceeds watcher buffer", 0)
		h.mu.Unlock()
	}
}

// streamView streams one view's matching events — Version > from, key in
// the watch's range — in contiguous runs, bounded by budget. It returns how many events
// were delivered and whether a matching event remained past the budget
// (replay overflow). The run slices alias the pinned segment array; the
// callback contract (no retention after return) is what makes that safe.
func (w *hubWatcher) streamView(v segView, budget int) (delivered int, overflowed bool) {
	evs := v.evs
	h := w.hub
	maxSeen := w.lastSeen.Load()
	defer func() {
		if maxSeen > w.lastSeen.Load() {
			w.lastSeen.Store(maxSeen)
		}
	}()
	i := v.lo
	for i < v.hi {
		if w.lagged.Load() || w.q.isCancelled() {
			return delivered, false
		}
		for i < v.hi && !(evs[i].Version > w.from && w.rng.Contains(evs[i].Key)) {
			i++
		}
		if i >= v.hi {
			break
		}
		j := i + 1
		for j < v.hi && evs[j].Version > w.from && w.rng.Contains(evs[j].Key) {
			j++
		}
		run := evs[i:j]
		if delivered+len(run) > budget {
			run = run[:budget-delivered]
			overflowed = true
		}
		for k := range run {
			ev := &run[k]
			if ev.Trace != 0 {
				h.tracer.Record(ev.Trace, trace.StageReplay)
				h.tracer.Record(ev.Trace, trace.StageDeliver)
			}
			if v := uint64(ev.Version); v > maxSeen {
				maxSeen = v
			}
		}
		if len(run) > 0 {
			w.nDelivered.Add(int64(len(run)))
			if w.batchCB != nil {
				w.batchCB.OnEventBatch(run)
			} else {
				for k := range run {
					w.cb.OnEvent(run[k])
				}
			}
			delivered += len(run)
		}
		if overflowed {
			return delivered, true
		}
		i = j
	}
	return delivered, false
}
