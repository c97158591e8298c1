package core

import (
	"sync"
	"sync/atomic"

	"unbundle/internal/keyspace"
)

// A hub's retention window is a chain of segments in arrival order:
// every segment but the last is sealed — immutable, shared zero-copy with
// replaying watchers — and the last is the active tail, append-only within a
// preallocated array. Slots are written exactly once, under the hub lock,
// and never rewritten afterwards; a snapshot of a segment's event slice
// taken under the lock can therefore be streamed lock-free, concurrently
// with appends, trims and seals.
type segment struct {
	// evs is the event array; cap is fixed at the hub's segment size.
	evs []ChangeEvent
	// trim is the logical start: evs[trim:] are retained, evs[:trim]
	// evicted. Only the chain's oldest segment advances it, one event per
	// eviction, under the hub lock. A pinned replay view may still be
	// streaming trimmed slots — trimming is a bookkeeping move, not a
	// rewrite, so those reads stay valid.
	trim int
	// sealed flips when the array reaches capacity; a sealed segment's
	// contents and summaries are frozen.
	sealed bool

	// Version index, maintained incrementally on append. minVer/maxVer
	// bound every event in the segment; sorted records that versions arrived
	// in non-decreasing order, which lets a replay cut binary-search its
	// lower bound instead of scanning. (The hub's arrival order is NOT
	// globally version-sorted when concurrent producers interleave, so
	// sorted is a property observed per segment, never assumed.)
	minVer, maxVer Version
	lastVer        Version
	sorted         bool

	// Key-range summary, computed once at seal time: minKey <= every key in
	// the segment <= maxKey. Replay skips sealed segments whose summary
	// cannot intersect the watcher's clip.
	minKey, maxKey keyspace.Key
	// bytes approximates the sealed payload footprint (keys + values),
	// reported by the core_hub_sealed_segment_bytes gauge.
	bytes int64

	// refs counts owners: the hub's chain holds one, and every pinned
	// replay view holds one. The array returns to the pool only at zero, so
	// recycling can never race an in-flight replay.
	refs atomic.Int32
}

// segEventOverhead is the per-event struct footprint counted into a sealed
// segment's bytes alongside its key and value payloads.
const segEventOverhead = 64

// evFootprint is the governor's byte estimate for one retained or queued
// event: payload (key + value) plus the per-event struct overhead. It is the
// same formula seal() folds into segment.bytes, so segment accounting and
// governor accounting agree by construction.
func evFootprint(ev *ChangeEvent) int64 {
	return int64(len(ev.Key)+len(ev.Mut.Value)) + segEventOverhead
}

// push appends one event, updating the incremental version index. Caller
// holds the hub lock and has checked capacity.
func (g *segment) push(ev ChangeEvent) {
	if len(g.evs) == 0 {
		g.minVer, g.maxVer = ev.Version, ev.Version
	} else {
		if ev.Version < g.lastVer {
			g.sorted = false
		}
		if ev.Version > g.maxVer {
			g.maxVer = ev.Version
		}
		if ev.Version < g.minVer {
			g.minVer = ev.Version
		}
	}
	g.lastVer = ev.Version
	g.evs = append(g.evs, ev)
}

// full reports whether the segment's array is at capacity (seal time).
func (g *segment) full() bool { return len(g.evs) == cap(g.evs) }

// seal freezes the segment and computes its key-range summary and byte
// footprint in one pass. Amortized over the segment's size, this is O(1)
// per append.
func (g *segment) seal() {
	g.sealed = true
	if len(g.evs) == 0 {
		return
	}
	g.minKey, g.maxKey = g.evs[0].Key, g.evs[0].Key
	for i := range g.evs {
		ev := &g.evs[i]
		if ev.Key < g.minKey {
			g.minKey = ev.Key
		}
		if ev.Key > g.maxKey {
			g.maxKey = ev.Key
		}
		g.bytes += int64(len(ev.Key) + len(ev.Mut.Value) + segEventOverhead)
	}
}

// overlaps reports whether the sealed segment's key summary intersects r.
// Only meaningful after seal; the tail has no summary and always overlaps.
func (g *segment) overlaps(r keyspace.Range) bool {
	if !g.sealed {
		return true
	}
	if g.maxKey < r.Low {
		return false
	}
	if r.High < keyspace.Inf && g.minKey >= r.High {
		return false
	}
	return true
}

// acquire pins the segment for a replay view.
func (g *segment) acquire() { g.refs.Add(1) }

// release drops one reference; the last owner clears the slots (releasing
// payload references) and recycles the array through the pool.
func (g *segment) release(p *segPool) {
	if g.refs.Add(-1) == 0 {
		p.put(g)
	}
}

// segPool recycles segment arrays so steady-state eviction (drop oldest,
// open a new tail) allocates nothing.
type segPool struct {
	size int // event capacity of every pooled array
	pool sync.Pool
}

// get returns a reset segment with one reference (the caller's).
func (p *segPool) get() *segment {
	g, _ := p.pool.Get().(*segment)
	if g == nil {
		g = &segment{evs: make([]ChangeEvent, 0, p.size)}
	}
	g.refs.Store(1)
	g.sorted = true
	return g
}

// put clears and returns a segment to the pool. Called only from release at
// refcount zero, so no reader can still hold a view of the array.
func (p *segPool) put(g *segment) {
	clear(g.evs[:cap(g.evs)])
	g.evs = g.evs[:0]
	g.trim = 0
	g.sealed = false
	g.sorted = false
	g.minVer, g.maxVer, g.lastVer = 0, 0, 0
	g.minKey, g.maxKey = "", ""
	g.bytes = 0
	p.pool.Put(g)
}

// segSizeFor picks the per-segment event capacity for a retention bound:
// about eight segments per window, clamped so tiny retentions still
// seal (exercising the whole lifecycle) and huge ones keep seal passes
// short.
func segSizeFor(retention int) int {
	size := retention / 8
	if size < 64 {
		size = 64
	}
	if size > 1024 {
		size = 1024
	}
	return size
}
