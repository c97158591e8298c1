package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// Hub errors.
var (
	// ErrClosed is returned by operations on a closed Hub.
	ErrClosed = errors.New("core: hub closed")
	// ErrBadWatch is returned for invalid watch requests.
	ErrBadWatch = errors.New("core: invalid watch request")
)

// HubConfig tunes a Hub's soft-state footprint and parallelism.
type HubConfig struct {
	// Retention is the maximum number of change events kept in each shard's
	// in-memory window (total soft state is therefore at most
	// Shards×Retention). Evicting an event a watcher would still need turns
	// into an explicit resync for that watcher — never silent loss.
	// Default 8192.
	Retention int
	// WatcherBuffer is the maximum number of undelivered change events queued
	// for one watcher before it is lagged out with a resync; progress takes
	// no slot. Default 1024.
	WatcherBuffer int
	// Shards is the number of key-range shards the hub's ingest state
	// (retained window, frontier, watcher index) is partitioned into. Appends
	// to disjoint ranges never contend: each shard has its own lock. Shard
	// boundaries follow keyspace.EvenSplit over the numeric key domain, the
	// same convention the auto-sharder uses. Default GOMAXPROCS;
	// reproduction experiments that depend on a single global eviction
	// window pin Shards to 1.
	Shards int
	// Metrics is the registry the hub's instruments register in; nil uses
	// metrics.Default().
	Metrics *metrics.Registry
	// Clock supplies the timestamps behind the lag radar (WatcherLags and
	// the version→time checkpoints); nil uses the real clock. Tests inject
	// clockwork.NewFake() for deterministic staleness measurements.
	Clock clockwork.Clock
	// Tracer, when non-nil, receives per-stage stamps (append, enqueue,
	// deliver) for events the source sampled. Wire the same Tracer into the
	// store and the hub so one trace spans commit→deliver. Nil disables the
	// hub's tracing stages at the cost of one branch per stage.
	Tracer *trace.Tracer
	// Recorder, when non-nil, receives flight-recorder records for the
	// hub's rare lifecycle events: watcher add/remove/lag-out, segment
	// seal/retire, state wipes, refused admissions. The hot append/deliver
	// paths record nothing per event, so the always-on cost is one branch
	// at each already-rare transition; nil disables recording entirely.
	Recorder *flightrec.Recorder
	// Governor, when non-nil, bounds the hub's soft state in bytes: retained
	// segments charge the "hub" account and watcher rings the "rings"
	// account, the hub registers its degradation relievers (accelerated
	// eviction, then watcher shedding), and Watch admission-controls new
	// registrations under Reject pressure. Nil disables governance at the
	// cost of one branch per charge site.
	Governor *govern.Governor
	// RetentionFloor is the per-shard retained-event count accelerated
	// eviction may trim down to under memory pressure — the freshness the
	// hub refuses to trade away. Default Retention/4.
	RetentionFloor int
}

// hubMetrics holds the hub's registry instruments, resolved once at
// construction so the hot paths touch only atomics.
type hubMetrics struct {
	appends, progress, evictions *metrics.Counter
	resyncs, delivered           *metrics.Counter
	// The two overflow counters split resyncs by cause; each one is a
	// "would have been a silent drop" that the watch contract converts into
	// an explicit resync.
	appendOverflow, replayOverflow *metrics.Counter
	// replayEvents counts change events delivered through the catch-up
	// (retained-history) stream, as opposed to the live fanout; replayLatency
	// observes one whole-watch replay stream each.
	replayEvents       *metrics.Counter
	appendLatency      *metrics.Histogram
	replayLatency      *metrics.Histogram
	queueHighwater     *metrics.Gauge
	watchers, retained *metrics.Gauge
	// sealedSegments/sealedBytes track the immutable portion of the
	// retention windows: how many sealed segments the shards hold and their
	// approximate payload footprint.
	sealedSegments, sealedBytes *metrics.Gauge
}

func newHubMetrics(reg *metrics.Registry) hubMetrics {
	reg = reg.Or()
	return hubMetrics{
		appends:        reg.Counter("core_hub_appends_total"),
		progress:       reg.Counter("core_hub_progress_total"),
		evictions:      reg.Counter("core_hub_evictions_total"),
		resyncs:        reg.Counter("core_hub_resyncs_total"),
		delivered:      reg.Counter("core_hub_delivered_total"),
		appendOverflow: reg.Counter("core_hub_append_overflow_total"),
		replayOverflow: reg.Counter("core_hub_replay_overflow_total"),
		replayEvents:   reg.Counter("core_hub_replay_events_total"),
		appendLatency:  reg.Histogram("core_hub_append_latency_ns"),
		replayLatency:  reg.Histogram("core_hub_replay_latency_ns"),
		queueHighwater: reg.Gauge("core_hub_watcher_queue_highwater"),
		watchers:       reg.Gauge("core_hub_watchers"),
		retained:       reg.Gauge("core_hub_retained_events"),
		sealedSegments: reg.Gauge("core_hub_sealed_segments"),
		sealedBytes:    reg.Gauge("core_hub_sealed_segment_bytes"),
	}
}

func (c *HubConfig) applyDefaults() {
	if c.Retention <= 0 {
		c.Retention = 8192
	}
	if c.WatcherBuffer <= 0 {
		c.WatcherBuffer = 1024
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.RetentionFloor <= 0 {
		c.RetentionFloor = c.Retention / 4
	}
	if c.RetentionFloor > c.Retention {
		c.RetentionFloor = c.Retention
	}
}

// HubStats is a snapshot of a Hub's counters, used by the efficiency
// experiments (E10): the hub holds no hard state, so its entire cost is the
// soft-state window reported here.
type HubStats struct {
	Appends        int64 // change events ingested
	ProgressEvents int64 // progress events ingested
	Evictions      int64 // events evicted from the retention windows
	Resyncs        int64 // resync signals issued to watchers
	Delivered      int64 // change events delivered to watchers
	RetainedEvents int   // current soft-state window size, summed over shards
	Watchers       int   // currently registered watchers
	Shards         int   // key-range shards
	MaxSeen        Version
}

// Hub is a standalone watch system: it implements Ingester on its input side
// and Watchable on its output side, holding only recoverable soft state.
//
// The contract it provides to each watcher registered over range R from
// version V:
//
//   - every ChangeEvent with Version > V for a key in R is delivered in
//     per-key version order, OR the watcher receives OnResync — there is no
//     third outcome (contrast §3.1: pubsub retention GC has exactly this
//     third, silent outcome);
//   - the watcher is told the hub's progress frontier clipped to R as it
//     rises: never a segment it was already told, never ahead of an
//     undelivered event in R, never beyond what the store has confirmed;
//   - a watcher that requests pre-eviction history, lags beyond its buffer,
//     or survives a hub state wipe gets OnResync with the minimum version its
//     recovery snapshot must reflect.
//
// Internally the hub is partitioned into key-range shards, each owning a
// slice of the retained window, the progress frontier, and the watcher
// index, under its own lock. A key lives in exactly one shard, so per-key
// version order survives sharding; a watcher spanning several shards
// registers in each — reading the log of each shard it covers, fed through
// its queue by the others — and one dispatch goroutine drains them all, so
// its callbacks stay serialized.
//
// Lock order (outermost first): regMu, then shard locks in ascending shard
// index, then watcher ring locks. Ingest (Append, AppendBatch, Progress,
// AppendCommit) takes only shard and ring locks, one shard at a time.
type Hub struct {
	cfg    HubConfig
	met    hubMetrics
	clock  clockwork.Clock
	tracer *trace.Tracer
	rec    *flightrec.Recorder

	// verTimes maps versions to the wall-clock instant the hub's frontier
	// first passed them — the substrate for time-behind-frontier lag.
	verTimes verClock

	shards []*hubShard // ascending, partitioning the keyspace

	// segPool recycles retention-segment arrays across all shards; the
	// per-segment event capacity is fixed at construction from Retention.
	segPool segPool

	// gov and its two child accounts are nil when ungoverned; every charge
	// site is nil-safe, so the ungoverned hot path pays one branch.
	gov      *govern.Governor
	segAcct  *govern.Account // retained-window footprint ("hub")
	ringAcct *govern.Account // queued-but-undelivered footprint ("rings")

	regMu    sync.Mutex // watcher lifecycle: Watch, cancel, Wipe, Close
	closed   bool
	watchers map[int64]*hubWatcher
	nextID   int64

	resyncs       atomic.Int64
	progressCalls atomic.Int64  // claims ingested (not per-shard slices)
	ingests       atomic.Uint64 // ingest calls carrying events, for latency sampling
}

// hubShard owns one key range's ingest state.
type hubShard struct {
	idx int // position in Hub.shards, for flight-record attribution
	rng keyspace.Range

	mu     sync.Mutex
	closed bool

	// Retained window: a chain of segments in arrival order. All but the
	// last are sealed — immutable and shared zero-copy with replaying
	// watchers; the last is the active tail, the only part of the window a
	// live append mutates. Steady state recycles arrays through the hub's
	// segment pool, so an append writes one slot and allocates nothing.
	segs  []*segment
	count int // retained events, summed over the chain
	// chargedBytes mirrors what this shard's retained window has charged the
	// governor's hub account: evFootprint summed over every slot of the
	// chain, trimmed ones included — an array keeps its trimmed payloads
	// reachable until its segment retires, which releases its bytes.
	// Maintained under s.mu so Wipe/Close can release exactly.
	chargedBytes int64

	// evicted is the max version among retired segments' events (and the
	// feed start); horizonLocked adds the head segment's trimmed slots.
	// Read cross-shard.
	evicted  atomic.Uint64
	maxSeen  atomic.Uint64 // max version ever appended here (read cross-shard)
	frontier VersionMap
	index    watcherIndex // shard-clipped ranges → the ring watchers covering them
	// readers are the watchers covering the whole shard, which read the
	// chain instead of a ring (reader.go).
	readers []*reader

	appends, evictions, delivered int64
	// logLen is appends as of the last finished ingest call, published once
	// per call for the lag checks and the radar to read without the lock.
	logLen atomic.Int64
}

// tailLocked returns the shard's active tail segment, opening the chain's
// first segment on demand. Caller holds s.mu.
func (s *hubShard) tailLocked(h *Hub) *segment {
	if len(s.segs) == 0 {
		s.segs = append(s.segs, h.segPool.get())
	}
	return s.segs[len(s.segs)-1]
}

var (
	_ Ingester       = (*Hub)(nil)
	_ CommitIngester = (*Hub)(nil)
	_ FeedStart      = (*Hub)(nil)
	_ Watchable      = (*Hub)(nil)
)

// NewHub creates a Hub with the given configuration.
func NewHub(cfg HubConfig) *Hub {
	cfg.applyDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = clockwork.Real()
	}
	h := &Hub{
		cfg:      cfg,
		met:      newHubMetrics(cfg.Metrics),
		clock:    clock,
		tracer:   cfg.Tracer,
		rec:      cfg.Recorder,
		watchers: make(map[int64]*hubWatcher),
		segPool:  segPool{size: segSizeFor(cfg.Retention)},
	}
	for i, r := range keyspace.EvenSplit(cfg.Shards*1000, cfg.Shards) {
		h.shards = append(h.shards, &hubShard{idx: i, rng: r})
	}
	h.registerLagGauges(cfg.Metrics.Or())
	if cfg.Governor != nil {
		h.gov = cfg.Governor
		h.segAcct = h.gov.Account("hub")
		h.ringAcct = h.gov.Account("rings")
		// The degradation ladder's first two rungs, in priority order:
		// shrink soft state before touching watchers, shed watchers before
		// (the governor starts) rejecting admissions.
		h.gov.RegisterReliever(10, "hub-evict", h.relieveEvict)
		h.gov.RegisterReliever(20, "hub-shed", h.relieveShed)
	}
	return h
}

// NumShards returns the hub's shard count.
func (h *Hub) NumShards() int { return len(h.shards) }

// minResyncVersion is the version a resyncing watcher's recovery snapshot
// must reflect: the highest version the hub has seen or evicted anywhere.
// Per-shard values are read atomically, so no shard lock is required.
func (h *Hub) minResyncVersion() Version {
	var min uint64
	for _, s := range h.shards {
		if v := s.maxSeen.Load(); v > min {
			min = v
		}
		if v := s.evicted.Load(); v > min {
			min = v
		}
	}
	return Version(min)
}

// ingestFx accumulates one ingest call's side effects so that registry
// counters are flushed once, outside every shard lock.
type ingestFx struct {
	appends, delivered, evictions, retained int64
	appendOverflow                          int64
	// segBytes is the call's net charge to the governor's hub account:
	// retained footprints minus evicted ones.
	segBytes int64
	lagged   []laggedRef // cross-shard index removal, deferred
}

// laggedRef records where a lag-out originated so the deferred cleanup can
// skip the shard whose lock already removed the index entry.
type laggedRef struct {
	w      *hubWatcher
	origin *hubShard
}

func (h *Hub) flushIngest(fx *ingestFx) {
	if fx.segBytes > 0 {
		h.segAcct.Charge(fx.segBytes)
	} else {
		h.segAcct.Release(-fx.segBytes)
	}
	if fx.appends > 0 {
		h.met.appends.Add(fx.appends)
	}
	if fx.delivered > 0 {
		h.met.delivered.Add(fx.delivered)
	}
	if fx.evictions > 0 {
		h.met.evictions.Add(fx.evictions)
	}
	if fx.retained != 0 {
		h.met.retained.Add(fx.retained)
	}
	if fx.appendOverflow > 0 {
		h.met.appendOverflow.Add(fx.appendOverflow)
	}
}

// finishLagged removes lagged watchers from the shards the lag-out origin
// could not touch (their locks were not held), releasing their readers'
// pins. Until this runs, stale index entries and readers are harmless: every
// fanout, lag check and capture checks the watcher's lagged flag, and the
// ring itself drops post-resync deliveries.
func (h *Hub) finishLagged(fx *ingestFx) {
	for _, ref := range fx.lagged {
		for _, s := range h.shards {
			if s == ref.origin {
				continue
			}
			clip := ref.w.rng.Intersect(s.rng)
			if clip.Empty() {
				continue
			}
			s.mu.Lock()
			s.index.remove(ref.w, clip)
			s.dropReaderLocked(h, ref.w)
			s.mu.Unlock()
		}
	}
}

// lagOutLocked marks w as lagged, replaces its queue with a resync, and
// removes it from the origin shard's index (whose lock the caller holds).
// Index entries in other shards are cleaned up by finishLagged after the
// origin lock is released; the atomic lagged flag keeps them inert until
// then. Exactly one caller wins the flag, so accounting happens once.
// tid, when nonzero, is the trace of the event whose delivery failure
// caused the cut-over — it correlates the flight record with the sampled
// trace that hit the full buffer.
func (h *Hub) lagOutLocked(w *hubWatcher, origin *hubShard, reason string, tid trace.ID, fx *ingestFx) {
	if !w.lagged.CompareAndSwap(false, true) {
		return
	}
	h.resyncs.Add(1)
	h.met.resyncs.Inc()
	if origin != nil {
		origin.index.remove(w, w.rng.Intersect(origin.rng))
		origin.dropReaderLocked(h, w)
	}
	min := h.minResyncVersion()
	w.q.lagOut(ResyncEvent{Range: w.rng, MinVersion: min, Reason: reason})
	fx.lagged = append(fx.lagged, laggedRef{w: w, origin: origin})
	h.rec.Record(flightrec.KindWatcherLagOut, flightrec.Event{
		Comp: "core.hub", ID: w.id, Version: uint64(min), Trace: tid, Detail: reason,
	})
}

// evictOneLocked trims the shard's oldest retained event without reading it,
// dropping the oldest segment once fully consumed; the caller holds s.mu and
// must have checked s.count > 0. It returns the governor footprint a retired
// segment frees (0 for a plain trim, or when ungoverned); the caller settles
// chargedBytes and the hub account.
func (s *hubShard) evictOneLocked(h *Hub, fx *ingestFx) int64 {
	oldest := s.segs[0]
	oldest.trim++
	s.count--
	s.evictions++
	fx.evictions++
	fx.retained--
	if !oldest.sealed || oldest.trim < len(oldest.evs) {
		return 0
	}
	s.segs[0] = nil
	s.segs = s.segs[1:]
	if v := uint64(oldest.maxVer); v > s.evicted.Load() {
		s.evicted.Store(v)
	}
	h.met.sealedSegments.Add(-1)
	h.met.sealedBytes.Add(-oldest.bytes)
	// One retire record stands in for the len(evs) per-event trims that
	// consumed the segment — eviction is flight-recorded at segment
	// granularity, never per event.
	h.rec.Record(flightrec.KindSegmentRetire, flightrec.Event{
		Comp: "core.hub", ID: int64(s.idx), Version: uint64(oldest.maxVer), N: int64(len(oldest.evs)),
	})
	var freed int64
	if h.segAcct != nil {
		freed = oldest.bytes
	}
	oldest.release(&h.segPool)
	return freed
}

// horizonLocked returns the highest version the shard no longer holds: the
// retired segments' horizon raised by the head segment's trimmed slots.
// Caller holds s.mu.
func (s *hubShard) horizonLocked() Version {
	v := Version(s.evicted.Load())
	if len(s.segs) == 0 {
		return v
	}
	g := s.segs[0]
	trimmed := g.evs[:g.trim]
	if g.sorted && len(trimmed) > 0 {
		trimmed = trimmed[len(trimmed)-1:] // the last trimmed slot holds their max
	}
	for i := range trimmed {
		v = max(v, trimmed[i].Version)
	}
	return v
}

// relieveEvict is the governor's first-rung reliever: accelerate retention
// eviction down to the configured floor, shard by shard, until retired
// segments have freed `need` bytes or every shard sits at its floor.
// Eviction never lags a live watcher (a ring watcher got its copy at append
// time, and a reader pins what it has not read); it only shortens the
// catch-up window new watchers can replay.
func (h *Hub) relieveEvict(need int64) int64 {
	var freed int64
	var fx ingestFx
	for _, s := range h.shards {
		if freed >= need {
			break
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			continue
		}
		var shardFreed int64
		for s.count > h.cfg.RetentionFloor && len(s.segs) > 0 && freed+shardFreed < need {
			shardFreed += s.evictOneLocked(h, &fx)
		}
		s.chargedBytes -= shardFreed
		s.mu.Unlock()
		freed += shardFreed
	}
	h.segAcct.Release(freed)
	h.flushIngest(&fx)
	return freed
}

// relieveShed is the second rung: when eviction alone cannot clear the
// pressure, lag out the watcher holding the largest undelivered backlog —
// onto the ordinary resync path, so the cut is explicit and recoverable —
// and quarantine it so a repeat offender waits out a jittered re-admit
// delay before Watch lets it back in. A watcher holds its ring's bytes plus,
// per reader, its unread events at the shard's mean retained footprint: the
// segments it pins.
func (h *Hub) relieveShed(int64) int64 {
	if h.gov.Pressure() < govern.Shed {
		return 0 // eviction pressure only: watchers are not touched yet
	}
	h.regMu.Lock()
	if h.closed {
		h.regMu.Unlock()
		return 0
	}
	mean := make([]int64, len(h.shards))
	for i, s := range h.shards {
		s.mu.Lock()
		if s.count > 0 {
			mean[i] = s.chargedBytes / int64(s.count)
		}
		s.mu.Unlock()
	}
	var worst *hubWatcher
	var worstBytes int64
	for _, w := range h.watchers {
		if w.lagged.Load() {
			continue
		}
		b := w.q.held()
		for _, r := range w.readers {
			b += int64(r.unread()) * mean[r.s.idx]
		}
		if b > worstBytes {
			worst, worstBytes = w, b
		}
	}
	if worst == nil {
		h.regMu.Unlock()
		return 0
	}
	var fx ingestFx
	h.gov.Quarantine(worst.rng.String())
	h.lagOutLocked(worst, nil, "shed under memory pressure", 0, &fx)
	h.regMu.Unlock()
	h.finishLagged(&fx)
	h.flushIngest(&fx)
	return worstBytes
}

// retainLocked adds one event to the shard's retained window; the caller
// holds s.mu.
func (s *hubShard) retainLocked(h *Hub, ev *ChangeEvent, fx *ingestFx) {
	s.appends++
	fx.appends++
	if v := uint64(ev.Version); v > s.maxSeen.Load() {
		s.maxSeen.Store(v)
	}
	// FIFO eviction beyond the per-shard retention: advance the oldest
	// segment's trim one event at a time (exact per-event accounting) and
	// drop the segment once fully consumed. A pinned replay view keeps a
	// dropped array alive — and readable — until it releases its reference.
	if s.count >= h.cfg.Retention && len(s.segs) > 0 {
		freed := s.evictOneLocked(h, fx)
		s.chargedBytes -= freed
		fx.segBytes -= freed
	}
	tail := s.tailLocked(h)
	if tail.full() {
		tail.seal()
		h.met.sealedSegments.Add(1)
		h.met.sealedBytes.Add(tail.bytes)
		h.rec.Record(flightrec.KindSegmentSeal, flightrec.Event{
			Comp: "core.hub", ID: int64(s.idx), Version: uint64(tail.maxVer), N: int64(len(tail.evs)),
		})
		tail = h.segPool.get()
		s.segs = append(s.segs, tail)
		s.pinTailLocked(tail)
	}
	tail.push(*ev)
	s.count++
	fx.retained++
	if h.segAcct != nil {
		fp := evFootprint(ev)
		s.chargedBytes += fp
		fx.segBytes += fp
	}
	if ev.Trace != 0 {
		h.tracer.Record(ev.Trace, trace.StageAppend)
		if len(s.readers) > 0 {
			// An event in the log is queued for every reader: stamp it
			// before the publish that lets a dispatcher capture it.
			h.tracer.Record(ev.Trace, trace.StageEnqueue)
		}
	}
}

// fanOutLocked hands the shard's events in evs to its ring watchers in one
// walk of the index; readers find them in the chain instead. Consecutive
// events in one interval form a run, and each of the interval's watchers
// takes the run in one ring append, so cost scales with runs and interested
// watchers, not with events times watchers. Events of other shards fall in
// intervals no watcher of s covers. moved is passed on to enqueueRun. The
// caller holds s.mu.
func (s *hubShard) fanOutLocked(h *Hub, evs []ChangeEvent, moved bool, fx *ingestFx) {
	x := &s.index
	for i := 0; i < len(evs) && len(x.lows) > 0; {
		at := x.find(evs[i].Key)
		j, tid := i+1, evs[i].Trace
		for ; j < len(evs) && x.holds(at, evs[j].Key); j++ {
			if tid == 0 {
				tid = evs[j].Trace
			}
		}
		// A lag-out below rebuilds the index; the list read here stays valid
		// (lists are copy-on-write) and the next run searches afresh.
		run, list := evs[i:j], x.ws[at]
		i = j
		for _, w := range list {
			if w.lagged.Load() {
				continue
			}
			// Stamp before publishing into the ring: once enqueued, the
			// dispatch goroutine may deliver and complete the trace at any
			// moment, and a completed trace takes no further stamps. On
			// overflow the stamps stand — they mark the first enqueue attempt
			// across the fan-out.
			if tid != 0 {
				for k := range run {
					if run[k].Trace != 0 && run[k].Version > w.from {
						h.tracer.Record(run[k].Trace, trace.StageEnqueue)
					}
				}
			}
			n, ok := w.q.enqueueRun(run, w.from, moved)
			s.delivered += int64(n)
			fx.delivered += int64(n)
			if !ok {
				fx.appendOverflow++
				h.lagOutLocked(w, s, "watcher buffer overflow", tid, fx)
			}
		}
	}
}

// ingestLocked is one shard's part of an ingest call, in one lock hold: it
// retains the events of evs that s owns, fans them out, raises the frontier
// over claim to v, and wakes the watchers — ring watchers the claim overlaps
// and every reader. The raise follows the enqueue under the lock every
// dispatcher's frontier read takes, so an event the new frontier covers is
// queued (or in the chain) before any dispatcher can see the frontier.
// The caller holds s.mu.
func (s *hubShard) ingestLocked(h *Hub, evs []ChangeEvent, claim keyspace.Range, v Version, fx *ingestFx) {
	n := fx.appends
	for i := range evs {
		if s.rng.Contains(evs[i].Key) {
			s.retainLocked(h, &evs[i], fx)
		}
	}
	grew, raise := fx.appends > n, !claim.Empty()
	if grew {
		s.fanOutLocked(h, evs, raise, fx)
	}
	if raise {
		if uint64(v) > s.maxSeen.Load() {
			s.maxSeen.Store(uint64(v))
		}
		s.frontier.Raise(claim, v)
		i, j := s.index.span(claim)
		for _, list := range s.index.ws[i:j] {
			for _, w := range list {
				if !w.lagged.Load() {
					w.q.wake()
				}
			}
		}
	}
	s.publishLocked(h, grew, raise, fx)
}

// ownsAny reports whether some event of evs falls in s.
func (s *hubShard) ownsAny(evs []ChangeEvent) bool {
	for i := range evs {
		if s.rng.Contains(evs[i].Key) {
			return true
		}
	}
	return false
}

// ingest is the one ingest path: Append, AppendBatch, Progress and
// AppendCommit all enter here. Each shard that owns an event of evs or
// overlaps the claim p (nil: none) is locked once, in ascending order, and
// settles its whole share in that hold; registry counters and the
// governor's retention account are settled once per call, outside every
// lock. Per-key version order holds because batch order is kept within each
// shard and a key lives in exactly one shard. The hub copies what it
// retains; the caller keeps ownership of evs.
func (h *Hub) ingest(evs []ChangeEvent, p *ProgressEvent) error {
	// A 1-in-8 sample of the calls that carry events keeps the clock and
	// the histogram lock off most of them.
	var start time.Time
	sample := len(evs) > 0 && h.ingests.Add(1)&7 == 0
	if sample {
		start = time.Now()
	}
	var fx ingestFx
	var v Version
	for _, s := range h.shards {
		var claim keyspace.Range
		if p != nil {
			claim, v = p.Range.Intersect(s.rng), p.Version
		}
		if claim.Empty() && !s.ownsAny(evs) {
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			h.finishLagged(&fx)
			h.flushIngest(&fx)
			return ErrClosed
		}
		s.ingestLocked(h, evs, claim, v, &fx)
		s.mu.Unlock()
	}
	h.finishLagged(&fx)
	h.flushIngest(&fx)
	if sample {
		h.met.appendLatency.ObserveDuration(time.Since(start))
	}
	if p != nil {
		h.progressCalls.Add(1)
		h.met.progress.Inc()
		// Checkpoint the frontier's passage of p.Version for the lag radar:
		// time-behind-frontier is "now minus the instant the hub first moved
		// past the watcher's position". Only a claim checkpoints, so the
		// append path stays checkpoint-free.
		h.verTimes.note(uint64(p.Version), h.clock.Now().UnixNano())
	}
	return nil
}

// Append implements Ingester. Events for one key must arrive in
// non-decreasing version order (the store's CDC feed guarantees this).
func (h *Hub) Append(ev ChangeEvent) error {
	return h.ingest([]ChangeEvent{ev}, nil)
}

// AppendBatch implements Ingester: it ingests a batch of events, taking each
// touched shard's lock once instead of once per event.
func (h *Hub) AppendBatch(evs []ChangeEvent) error {
	return h.ingest(evs, nil)
}

// Progress implements Ingester: the store confirms completeness of the event
// stream for a range up to a version. The claim is split along shard
// boundaries; each shard raises its frontier slice and wakes the watchers
// its range index finds overlapping the clipped claim, so watchers with no
// overlap are never touched. A claim holds no queue slot: each woken
// dispatcher reads the frontier itself, so progress can never overflow a
// watcher, and a burst of claims costs a slow watcher one announcement.
func (h *Hub) Progress(p ProgressEvent) error {
	return h.ingest(nil, &p)
}

// AppendCommit implements CommitIngester: one commit's events and then its
// progress claim, as AppendBatch(evs) followed by Progress(p) would ingest
// them, but with each touched shard locked once and each touched watcher
// woken once.
func (h *Hub) AppendCommit(evs []ChangeEvent, p ProgressEvent) error {
	return h.ingest(evs, &p)
}

// FeedStartsAfter implements FeedStart: a hub attached to a source already
// at version v holds none of the history at or below v, so each shard's
// eviction horizon rises to v and a watch from before it resyncs.
func (h *Hub) FeedStartsAfter(v Version) {
	for _, s := range h.shards {
		s.mu.Lock()
		if uint64(v) > s.evicted.Load() {
			s.evicted.Store(uint64(v))
		}
		s.mu.Unlock()
	}
}

// Watch implements Watchable. The watcher registers in every shard its range
// overlaps; each shard does O(segments) work under its lock — pin the
// retention chain's segments and record the cut version — and the watcher's
// dispatch goroutine then streams the replay outside every lock, zero-copy
// from the pinned arrays, before falling into the live stream. Registration
// and the replay snapshot are atomic per shard: an append that ran before
// registration is in the snapshot, one that ran after is enqueued live.
func (h *Hub) Watch(r keyspace.Range, from Version, cb WatchCallback) (Cancel, error) {
	if cb == nil {
		return nil, fmt.Errorf("%w: nil callback", ErrBadWatch)
	}
	if r.Empty() {
		return nil, fmt.Errorf("%w: empty range %v", ErrBadWatch, r)
	}
	// Admission control is the ladder's last rung: under Reject pressure —
	// or while this range is quarantined after repeated sheds — the request
	// fails fast with a typed, retryable govern.Overloaded instead of
	// growing a ring the governor would immediately shed.
	if err := h.gov.Admit(r.String()); err != nil {
		h.rec.Record(flightrec.KindWatchRefused, flightrec.Event{
			Comp: "core.hub", Detail: r.String() + ": " + err.Error(),
		})
		return nil, err
	}
	h.regMu.Lock()
	if h.closed {
		h.regMu.Unlock()
		return nil, ErrClosed
	}
	w := newHubWatcher(h, h.nextID, r, from, cb, h.cfg.WatcherBuffer)
	w.newReaders(h.shards)
	h.nextID++
	h.watchers[w.id] = w

	var fx ingestFx
	failReason := ""
	for _, s := range h.shards {
		clip := r.Intersect(s.rng)
		if clip.Empty() {
			continue
		}
		s.mu.Lock()
		if horizon := s.horizonLocked(); from < horizon {
			// The history this watcher needs is gone from this shard's
			// soft-state window: tell it immediately rather than delivering a
			// gapped stream.
			failReason = fmt.Sprintf("requested version %v predates retained history (evicted through %v)", from, horizon)
			s.mu.Unlock()
			break
		}
		if clip == s.rng {
			s.addReaderLocked(h, w)
		} else {
			s.index.add(w, clip)
			w.ringed = true
		}
		// Pin the shard's retention chain for off-lock replay (arrival order
		// preserves per-key version order). The events are not copied here:
		// the dispatch goroutine streams them straight out of the pinned
		// segment arrays, and a replay larger than the watcher's buffer lags
		// it out with a resync there — the truncated stream a silent drop
		// would leave behind is precisely the gapped delivery the contract
		// forbids.
		w.replay = s.snapshotReplayLocked(w.replay, clip, from)
		s.mu.Unlock()
	}
	if failReason != "" {
		h.lagOutLocked(w, nil, failReason, 0, &fx)
	}
	// Announce the current frontier on the first dispatch, after the replay,
	// so the watcher establishes knowledge without waiting for the next
	// progress claim.
	w.q.moved.Store(true)
	h.met.watchers.Set(int64(len(h.watchers)))
	h.regMu.Unlock()
	h.finishLagged(&fx)
	h.flushIngest(&fx)
	h.rec.Record(flightrec.KindWatcherAdd, flightrec.Event{
		Comp: "core.hub", ID: w.id, Version: uint64(from), Detail: r.String(),
	})

	go w.run()
	return func() { h.cancel(w) }, nil
}

// cancel stops the watcher's ring before it leaves any shard: a dispatcher
// that found a reader already gone would capture nothing and could announce
// a frontier over events it never delivered, while a stopped ring makes the
// dispatcher skip both.
func (h *Hub) cancel(w *hubWatcher) {
	h.regMu.Lock()
	delete(h.watchers, w.id)
	h.met.watchers.Set(int64(len(h.watchers)))
	h.regMu.Unlock()
	h.rec.Record(flightrec.KindWatcherRemove, flightrec.Event{Comp: "core.hub", ID: w.id})
	w.q.stop()
	for _, s := range h.shards {
		clip := w.rng.Intersect(s.rng)
		if clip.Empty() {
			continue
		}
		s.mu.Lock()
		s.index.remove(w, clip)
		s.dropReaderLocked(h, w)
		s.mu.Unlock()
	}
}

// Wipe discards the hub's entire soft state — retained events and frontier —
// and resyncs every watcher. It models losing the watch system's storage:
// per §4.2.2 this costs latency, never data or consistency, because every
// consumer recovers from the authoritative store. Experiments use it for
// failure injection. Wipe takes every shard lock (in order), so the wipe is
// atomic with respect to concurrent ingest.
func (h *Hub) Wipe() {
	h.regMu.Lock()
	defer h.regMu.Unlock()
	if h.closed {
		return
	}
	for _, s := range h.shards {
		s.mu.Lock()
	}
	for _, s := range h.shards {
		for _, g := range s.segs {
			if g.sealed {
				h.met.sealedSegments.Add(-1)
				h.met.sealedBytes.Add(-g.bytes)
			}
			g.release(&h.segPool)
		}
		s.segs = nil
		s.count = 0
		h.segAcct.Release(s.chargedBytes)
		s.chargedBytes = 0
		s.evicted.Store(s.maxSeen.Load())
		s.frontier = VersionMap{}
	}
	min := h.minResyncVersion()
	for _, w := range h.watchers {
		// Re-evaluate: everyone resyncs afresh, including previously lagged
		// watchers.
		w.lagged.Store(true)
		h.resyncs.Add(1)
		h.met.resyncs.Inc()
		for _, s := range h.shards {
			s.index.remove(w, w.rng.Intersect(s.rng))
			s.dropReaderLocked(h, w)
		}
		w.q.lagOut(ResyncEvent{Range: w.rng, MinVersion: min, Reason: "watch system state wiped"})
	}
	h.met.retained.Set(0)
	for i := len(h.shards) - 1; i >= 0; i-- {
		h.shards[i].mu.Unlock()
	}
	h.rec.Record(flightrec.KindHubWipe, flightrec.Event{
		Comp: "core.hub", Version: uint64(min), N: int64(len(h.watchers)),
	})
}

// Frontier returns a copy of the current progress frontier, merged across
// shards.
func (h *Hub) Frontier() *VersionMap {
	return &VersionMap{segs: h.frontierOver(keyspace.Full(), nil)}
}

// frontierOver appends the frontier over r to dst, reading each overlapping
// shard under its lock. Shards are disjoint and ascending, so segments
// arrive in key order; appendSegment merges equal versions across shard
// boundaries.
func (h *Hub) frontierOver(r keyspace.Range, dst []RangeVersion) []RangeVersion {
	for _, s := range h.shards {
		if !s.rng.Overlaps(r) {
			continue
		}
		s.mu.Lock()
		for _, seg := range s.frontier.Segments() {
			if fc := seg.Range.Intersect(r); !fc.Empty() {
				dst = appendSegment(dst, fc, seg.Version)
			}
		}
		s.mu.Unlock()
	}
	return dst
}

// Stats returns a snapshot of the hub's counters.
func (h *Hub) Stats() HubStats {
	st := HubStats{Shards: len(h.shards)}
	for _, s := range h.shards {
		s.mu.Lock()
		st.Appends += s.appends
		st.Evictions += s.evictions
		st.Delivered += s.delivered
		st.RetainedEvents += s.count
		if v := Version(s.maxSeen.Load()); v > st.MaxSeen {
			st.MaxSeen = v
		}
		s.mu.Unlock()
	}
	st.ProgressEvents = h.progressCalls.Load()
	st.Resyncs = h.resyncs.Load()
	h.regMu.Lock()
	st.Watchers = len(h.watchers)
	h.regMu.Unlock()
	return st
}

// Close shuts the hub down; all watchers are stopped without further
// callbacks, and subsequent operations fail with ErrClosed.
func (h *Hub) Close() {
	h.regMu.Lock()
	if h.closed {
		h.regMu.Unlock()
		return
	}
	h.closed = true
	for _, s := range h.shards {
		s.mu.Lock()
		s.closed = true
		h.segAcct.Release(s.chargedBytes)
		s.chargedBytes = 0
		s.mu.Unlock()
	}
	ws := make([]*hubWatcher, 0, len(h.watchers))
	for _, w := range h.watchers {
		ws = append(ws, w)
	}
	h.watchers = map[int64]*hubWatcher{}
	h.met.watchers.Set(0)
	h.regMu.Unlock()
	for _, w := range ws {
		w.q.stop()
	}
}

// hubWatcher is the per-watch delivery state. Callbacks run on a dedicated
// goroutine so a slow consumer can never block the hub — it simply overflows
// its own bounded buffer and is resynced. One watcher spans any number of
// shards: it reads each shard its range covers (reader.go), and every other
// shard feeds its ring; one dispatch goroutine serializes delivery.
type hubWatcher struct {
	id   int64
	hub  *Hub
	rng  keyspace.Range
	from Version
	cb   WatchCallback
	// batchCB is cb's EventBatchCallback view, resolved once at registration;
	// non-nil switches the dispatch loop to whole-batch event hand-off.
	batchCB EventBatchCallback
	q       *ring
	// readers are the watcher's positions in the shards its range covers,
	// fixed at registration; ringed reports that some other shard feeds q.
	readers []*reader
	ringed  bool
	// caps and join are the dispatcher's reusable capture list and joined
	// batch (see deliver). Owned by the dispatch goroutine.
	caps []capture
	join []ChangeEvent

	// replay is the pinned retained-history snapshot assembled at
	// registration: segment views this watcher's dispatch goroutine streams
	// (and releases) exactly once, before entering the live loop.
	replay []segView

	// told is the frontier over rng as last announced to the callback, and
	// next the buffer the following read fills; the two swap after every
	// announcement. Owned by the dispatch goroutine.
	told VersionMap
	next []RangeVersion

	// lagged marks that the hub has stopped feeding this watcher; the only
	// remaining delivery is the resync already pending. It is a fast-path
	// filter — the ring's own state is what makes the cut-over atomic.
	lagged atomic.Bool

	// lastSeen is the highest version this watcher has consumed — via a
	// delivered change event or an announced frontier — and the watcher's
	// position on the lag radar. Written only by the dispatch goroutine; read
	// atomically by WatcherLags.
	lastSeen atomic.Uint64
	// nDelivered counts change events dispatched to the callback.
	nDelivered atomic.Int64
}

func newHubWatcher(h *Hub, id int64, r keyspace.Range, from Version, cb WatchCallback, max int) *hubWatcher {
	w := &hubWatcher{id: id, hub: h, rng: r, from: from, cb: cb, q: newRing(max)}
	w.q.acct = h.ringAcct
	w.batchCB, _ = cb.(EventBatchCallback)
	w.lastSeen.Store(uint64(from))
	return w
}

// run is the watcher's dispatch loop. Each round it clears the moved flag,
// reads the frontier over its range, captures each reader's unread log,
// takes every queued event, delivers them, and then announces the frontier
// segments that changed since the last announcement. That order is what
// keeps progress truthful: an event the frontier F covers was appended (and
// queued, for a ring shard) before F was raised, under the shard lock the
// read takes, so it is in the capture or take that follows the read and is
// delivered before F is announced. Clearing the flag before the read loses
// no wake: a raise or publish the read missed sets the flag again. The queue
// highwater gauge is published here, off the ingest path.
func (w *hubWatcher) run() {
	// Stream the pinned retained-history snapshot first: the ring holds only
	// live events enqueued after registration, so the catch-up prefix lands
	// before anything the live stream produced.
	w.runReplay()
	var spare []ChangeEvent
	for w.q.wait() {
		w.q.moved.Store(false)
		next := w.hub.frontierOver(w.rng, w.next[:0])
		caps := w.captureAll(w.caps[:0])
		evs, rs, high, open := w.q.take(spare)
		if high > 0 {
			w.hub.met.queueHighwater.Max(int64(high))
		}
		ok := w.deliver(evs, caps)
		releaseCaptures(w.hub, caps)
		w.caps = caps[:0]
		if !ok {
			return
		}
		clear(evs) // release payload refs until the array is queued into again
		spare = evs[:0]
		if rs != nil {
			w.cb.OnResync(*rs)
		}
		if open {
			w.announce(next)
		}
	}
}

// deliverRun hands one run to the callback: whole to an
// EventBatchCallback (the batch survives from ring or segment to wire
// untouched), otherwise one OnEvent at a time. It reports false once the
// watch is cancelled.
func (w *hubWatcher) deliverRun(evs []ChangeEvent) bool {
	if len(evs) == 0 {
		return true
	}
	if w.batchCB != nil {
		maxSeen := w.lastSeen.Load()
		for k := range evs {
			ev := &evs[k]
			if ev.Trace != 0 {
				w.hub.tracer.Record(ev.Trace, trace.StageDeliver)
			}
			if v := uint64(ev.Version); v > maxSeen {
				maxSeen = v
			}
		}
		w.lastSeen.Store(maxSeen)
		w.nDelivered.Add(int64(len(evs)))
		w.batchCB.OnEventBatch(evs)
		return true
	}
	for k := range evs {
		if k > 0 && w.q.isCancelled() {
			return false
		}
		ev := &evs[k]
		if ev.Trace != 0 {
			w.hub.tracer.Record(ev.Trace, trace.StageDeliver)
		}
		if v := uint64(ev.Version); v > w.lastSeen.Load() {
			w.lastSeen.Store(v)
		}
		w.nDelivered.Add(1)
		w.cb.OnEvent(*ev)
	}
	return true
}

// announce tells the callback each segment of next that raises some key of
// it above what the watcher was last told, then makes next the told
// frontier. The frontier never falls while a watcher is open (a wipe lags
// every watcher out), so a segment told nothing new is a repeat and skipped.
func (w *hubWatcher) announce(next []RangeVersion) {
	for _, seg := range next {
		if w.told.MinOver(seg.Range) >= seg.Version {
			continue
		}
		if w.q.isCancelled() {
			return
		}
		if v := uint64(seg.Version); v > w.lastSeen.Load() {
			w.lastSeen.Store(v)
		}
		w.cb.OnProgress(ProgressEvent{Range: seg.Range, Version: seg.Version})
	}
	w.next, w.told.segs = w.told.segs[:0], next
}
