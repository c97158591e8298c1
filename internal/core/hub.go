package core

import (
	"errors"
	"fmt"
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

// HubConfig tunes a Hub's soft-state footprint.
type HubConfig struct {
	// Retention is the maximum number of change events kept in the hub's
	// in-memory window, one window for the whole keyspace. Evicting an event
	// a watcher would still need turns into an explicit resync for that
	// watcher — never silent loss. Default 8192.
	Retention int
	// WatcherBuffer is the maximum number of undelivered change events queued
	// for one watcher before it is lagged out with a resync; progress takes
	// no slot. Default 1024.
	WatcherBuffer int
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
	// RetentionFloor is the retained-event count accelerated eviction may
	// trim down to under memory pressure — the freshness the hub refuses to
	// trade away. Default Retention/4.
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
	// retention window: how many sealed segments the hub holds and their
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
	Evictions      int64 // events evicted from the retention window
	Resyncs        int64 // resync signals issued to watchers
	Delivered      int64 // change events delivered to watchers
	RetainedEvents int   // current soft-state window size
	Watchers       int   // currently registered watchers
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
// One retained window, one progress frontier and one watcher index sit
// behind one ingest lock, mu. The sources feeding a hub commit serially, so
// ingest is serial anyway; a deployment scales out by giving key ranges to
// whole hubs (internal/sharder), never by splitting one.
//
// Lock order (outermost first): regMu, then mu, then watcher ring locks.
// Ingest (Append, AppendBatch, Progress, AppendCommit) takes only mu and
// ring locks.
type Hub struct {
	cfg    HubConfig
	met    hubMetrics
	clock  clockwork.Clock
	tracer *trace.Tracer
	rec    *flightrec.Recorder

	// verTimes maps versions to the wall-clock instant the hub's frontier
	// first passed them — the substrate for time-behind-frontier lag.
	verTimes verClock

	// segPool recycles retention-segment arrays; the per-segment event
	// capacity is fixed at construction from Retention.
	segPool segPool

	// gov and its two child accounts are nil when ungoverned; every charge
	// site is nil-safe, so the ungoverned hot path pays one branch.
	gov      *govern.Governor
	segAcct  *govern.Account // retained-window footprint ("hub")
	ringAcct *govern.Account // queued-but-undelivered footprint ("rings")

	regMu    sync.Mutex // watcher lifecycle: Watch, cancel, Wipe, Close
	watchers map[int64]*hubWatcher
	nextID   int64

	mu sync.Mutex // ingest state, below
	// closed is written with regMu and mu both held, so either one guards
	// a read.
	closed bool

	// Retained window: a chain of segments in arrival order. All but the
	// last are sealed — immutable and shared zero-copy with replaying
	// watchers; the last is the active tail, the only part of the window a
	// live append mutates. Steady state recycles arrays through segPool, so
	// an append writes one slot and allocates nothing.
	segs  []*segment
	count int // retained events, summed over the chain
	// chargedBytes mirrors what the retained window has charged the
	// governor's hub account: evFootprint summed over every slot of the
	// chain, trimmed ones included — an array keeps its trimmed payloads
	// reachable until its segment retires, which releases its bytes.
	chargedBytes int64

	// evicted is the max version among retired segments' events (and the
	// feed start); horizonLocked adds the head segment's trimmed slots.
	evicted  Version
	maxSeen  atomic.Uint64 // max version ever ingested (read by the lag radar)
	frontier VersionMap
	index    watcherIndex // watch ranges → the ring watchers covering them
	// readers are the full-range watchers, which read the chain instead of
	// a ring (reader.go).
	readers []*reader

	appends, evictions, delivered int64
	// logLen is appends as of the last finished ingest call, published once
	// per call for the lag radar to read without the lock.
	logLen atomic.Int64

	resyncs       atomic.Int64
	progressCalls atomic.Int64  // claims ingested
	ingests       atomic.Uint64 // ingest calls carrying events, for latency sampling
}

// tailLocked returns the active tail segment, opening the chain's first
// segment on demand. Caller holds h.mu.
func (h *Hub) tailLocked() *segment {
	if len(h.segs) == 0 {
		h.segs = append(h.segs, h.segPool.get())
	}
	return h.segs[len(h.segs)-1]
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

// minResyncVersion is the version a resyncing watcher's recovery snapshot
// must reflect: the highest version the hub has seen or evicted. Caller
// holds h.mu.
func (h *Hub) minResyncVersion() Version {
	return max(Version(h.maxSeen.Load()), h.evicted)
}

// ingestFx accumulates one ingest call's side effects so that registry
// counters are flushed once, outside the lock.
type ingestFx struct {
	appends, delivered, evictions, retained int64
	appendOverflow                          int64
	// segBytes is the call's net charge to the governor's hub account:
	// retained footprints minus evicted ones.
	segBytes int64
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

// lagOutLocked marks w as lagged, replaces its queue with a resync, and
// removes its index entry and reader. Exactly one caller wins the flag, so
// accounting happens once. tid, when nonzero, is the trace of the event
// whose delivery failure caused the cut-over — it correlates the flight
// record with the sampled trace that hit the full buffer. Caller holds h.mu.
func (h *Hub) lagOutLocked(w *hubWatcher, reason string, tid trace.ID) {
	if !w.lagged.CompareAndSwap(false, true) {
		return
	}
	h.resyncs.Add(1)
	h.met.resyncs.Inc()
	h.detachLocked(w)
	min := h.minResyncVersion()
	w.q.lagOut(ResyncEvent{Range: w.rng, MinVersion: min, Reason: reason})
	h.rec.Record(flightrec.KindWatcherLagOut, flightrec.Event{
		Comp: "core.hub", ID: w.id, Version: uint64(min), Trace: tid, Detail: reason,
	})
}

// detachLocked stops feeding w: it leaves the index, or, for a reader, the
// reader list with its pins released. Caller holds h.mu.
func (h *Hub) detachLocked(w *hubWatcher) {
	if w.rd == nil {
		h.index.remove(w, w.rng)
	} else {
		h.dropReaderLocked(w.rd)
	}
}

// evictOneLocked trims the oldest retained event without reading it,
// dropping the oldest segment once fully consumed; the caller holds h.mu and
// must have checked h.count > 0. It returns the governor footprint a retired
// segment frees (0 for a plain trim, or when ungoverned); the caller settles
// chargedBytes and the hub account.
func (h *Hub) evictOneLocked(fx *ingestFx) int64 {
	oldest := h.segs[0]
	oldest.trim++
	h.count--
	h.evictions++
	fx.evictions++
	fx.retained--
	if !oldest.sealed || oldest.trim < len(oldest.evs) {
		return 0
	}
	h.segs[0] = nil
	h.segs = h.segs[1:]
	h.evicted = max(h.evicted, oldest.maxVer)
	h.met.sealedSegments.Add(-1)
	h.met.sealedBytes.Add(-oldest.bytes)
	// One retire record stands in for the len(evs) per-event trims that
	// consumed the segment — eviction is flight-recorded at segment
	// granularity, never per event.
	h.rec.Record(flightrec.KindSegmentRetire, flightrec.Event{
		Comp: "core.hub", Version: uint64(oldest.maxVer), N: int64(len(oldest.evs)),
	})
	var freed int64
	if h.segAcct != nil {
		freed = oldest.bytes
	}
	oldest.release(&h.segPool)
	return freed
}

// horizonLocked returns the highest version the hub no longer holds: the
// retired segments' horizon raised by the head segment's trimmed slots.
// Caller holds h.mu.
func (h *Hub) horizonLocked() Version {
	v := h.evicted
	if len(h.segs) == 0 {
		return v
	}
	g := h.segs[0]
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
// eviction down to the configured floor until retired segments have freed
// `need` bytes or the window sits at its floor. Eviction never lags a live
// watcher (a ring watcher got its copy at append time, and a reader pins
// what it has not read); it only shortens the catch-up window new watchers
// can replay.
func (h *Hub) relieveEvict(need int64) int64 {
	var freed int64
	var fx ingestFx
	h.mu.Lock()
	if !h.closed {
		for h.count > h.cfg.RetentionFloor && len(h.segs) > 0 && freed < need {
			freed += h.evictOneLocked(&fx)
		}
		h.chargedBytes -= freed
	}
	h.mu.Unlock()
	h.segAcct.Release(freed)
	h.flushIngest(&fx)
	return freed
}

// relieveShed is the second rung: when eviction alone cannot clear the
// pressure, lag out the watcher holding the largest undelivered backlog —
// onto the ordinary resync path, so the cut is explicit and recoverable —
// and quarantine it so a repeat offender waits out a jittered re-admit
// delay before Watch lets it back in. A watcher holds its ring's bytes plus,
// for a reader, its unread events at the window's mean retained footprint:
// the segments it pins.
func (h *Hub) relieveShed(int64) int64 {
	if h.gov.Pressure() < govern.Shed {
		return 0 // eviction pressure only: watchers are not touched yet
	}
	h.regMu.Lock()
	defer h.regMu.Unlock()
	if h.closed {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var mean int64
	if h.count > 0 {
		mean = h.chargedBytes / int64(h.count)
	}
	var worst *hubWatcher
	var worstBytes int64
	for _, w := range h.watchers {
		if w.lagged.Load() {
			continue
		}
		b := w.q.held() + int64(w.unread())*mean
		if b > worstBytes {
			worst, worstBytes = w, b
		}
	}
	if worst == nil {
		return 0
	}
	h.gov.Quarantine(worst.rng.String())
	h.lagOutLocked(worst, "shed under memory pressure", 0)
	return worstBytes
}

// retainLocked adds one event to the retained window; the caller holds h.mu.
func (h *Hub) retainLocked(ev *ChangeEvent, fx *ingestFx) {
	h.appends++
	fx.appends++
	if v := uint64(ev.Version); v > h.maxSeen.Load() {
		h.maxSeen.Store(v)
	}
	// FIFO eviction beyond the retention: advance the oldest segment's trim
	// one event at a time (exact per-event accounting) and drop the segment
	// once fully consumed. A pinned replay view keeps a dropped array alive
	// — and readable — until it releases its reference.
	if h.count >= h.cfg.Retention && len(h.segs) > 0 {
		freed := h.evictOneLocked(fx)
		h.chargedBytes -= freed
		fx.segBytes -= freed
	}
	tail := h.tailLocked()
	if tail.full() {
		tail.seal()
		h.met.sealedSegments.Add(1)
		h.met.sealedBytes.Add(tail.bytes)
		h.rec.Record(flightrec.KindSegmentSeal, flightrec.Event{
			Comp: "core.hub", Version: uint64(tail.maxVer), N: int64(len(tail.evs)),
		})
		tail = h.segPool.get()
		h.segs = append(h.segs, tail)
		h.pinTailLocked(tail)
	}
	tail.push(*ev)
	h.count++
	fx.retained++
	if h.segAcct != nil {
		fp := evFootprint(ev)
		h.chargedBytes += fp
		fx.segBytes += fp
	}
	if ev.Trace != 0 {
		h.tracer.Record(ev.Trace, trace.StageAppend)
		if len(h.readers) > 0 {
			// An event in the log is queued for every reader: stamp it
			// before the publish that lets a dispatcher capture it.
			h.tracer.Record(ev.Trace, trace.StageEnqueue)
		}
	}
}

// fanOutLocked hands evs to the ring watchers in one walk of the index;
// readers find them in the chain instead. Consecutive events in one interval
// form a run, and each of the interval's watchers takes the run in one ring
// append, so cost scales with runs and interested watchers, not with events
// times watchers. moved is passed on to enqueueRun. The caller holds h.mu.
func (h *Hub) fanOutLocked(evs []ChangeEvent, moved bool, fx *ingestFx) {
	x := &h.index
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
			h.delivered += int64(n)
			fx.delivered += int64(n)
			if !ok {
				fx.appendOverflow++
				h.lagOutLocked(w, "watcher buffer overflow", tid)
			}
		}
	}
}

// ingestLocked retains evs, fans them out, raises the frontier over claim
// to v, and wakes the watchers — ring watchers the claim overlaps and every
// reader. The raise follows the enqueue under the lock every dispatcher's
// frontier read takes, so an event the new frontier covers is queued (or in
// the chain) before any dispatcher can see the frontier. The caller holds
// h.mu.
func (h *Hub) ingestLocked(evs []ChangeEvent, claim keyspace.Range, v Version, fx *ingestFx) {
	for i := range evs {
		h.retainLocked(&evs[i], fx)
	}
	grew, raise := len(evs) > 0, !claim.Empty()
	if grew {
		h.fanOutLocked(evs, raise, fx)
	}
	if raise {
		if uint64(v) > h.maxSeen.Load() {
			h.maxSeen.Store(uint64(v))
		}
		h.frontier.Raise(claim, v)
		i, j := h.index.span(claim)
		for _, list := range h.index.ws[i:j] {
			for _, w := range list {
				if !w.lagged.Load() {
					w.q.wake()
				}
			}
		}
	}
	h.publishLocked(grew, raise, fx)
}

// ingest is the one ingest path: Append, AppendBatch, Progress and
// AppendCommit all enter here, and a call carrying events or a non-empty
// claim p (nil: none) settles in one hold of h.mu. Registry counters and
// the governor's retention account are settled once per call, outside the
// lock. The hub copies what it retains; the caller keeps ownership of evs.
func (h *Hub) ingest(evs []ChangeEvent, p *ProgressEvent) error {
	var claim keyspace.Range
	var v Version
	if p != nil {
		claim, v = p.Range, p.Version
	}
	if len(evs) > 0 || !claim.Empty() {
		// A 1-in-8 sample of the calls that carry events keeps the clock and
		// the histogram lock off most of them.
		var start time.Time
		sample := len(evs) > 0 && h.ingests.Add(1)&7 == 0
		if sample {
			start = time.Now()
		}
		var fx ingestFx
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			return ErrClosed
		}
		h.ingestLocked(evs, claim, v, &fx)
		h.mu.Unlock()
		h.flushIngest(&fx)
		if sample {
			h.met.appendLatency.ObserveDuration(time.Since(start))
		}
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

// AppendBatch implements Ingester: it ingests a batch of events in one hold
// of the hub's lock instead of one per event.
func (h *Hub) AppendBatch(evs []ChangeEvent) error {
	return h.ingest(evs, nil)
}

// Progress implements Ingester: the store confirms completeness of the event
// stream for a range up to a version. The hub raises its frontier and wakes
// the watchers its range index finds overlapping the claim, so watchers
// with no overlap are never touched. A claim holds no queue slot: each woken
// dispatcher reads the frontier itself, so progress can never overflow a
// watcher, and a burst of claims costs a slow watcher one announcement.
func (h *Hub) Progress(p ProgressEvent) error {
	return h.ingest(nil, &p)
}

// AppendCommit implements CommitIngester: one commit's events and then its
// progress claim, as AppendBatch(evs) followed by Progress(p) would ingest
// them, but with the lock taken once and each touched watcher woken once.
func (h *Hub) AppendCommit(evs []ChangeEvent, p ProgressEvent) error {
	return h.ingest(evs, &p)
}

// FeedStartsAfter implements FeedStart: a hub attached to a source already
// at version v holds none of the history at or below v, so its eviction
// horizon rises to v and a watch from before it resyncs.
func (h *Hub) FeedStartsAfter(v Version) {
	h.mu.Lock()
	h.evicted = max(h.evicted, v)
	h.mu.Unlock()
}

// Watch implements Watchable. Registration does O(segments) work under the
// hub's lock — pin the retention chain's segments and record the cut
// version — and the watcher's dispatch goroutine then streams the replay
// outside the lock, zero-copy from the pinned arrays, before falling into
// the live stream. Registration and the replay snapshot are atomic: an
// append that ran before registration is in the snapshot, one that ran
// after is enqueued live. A full-range watch is a reader of the chain
// (reader.go); any other keeps a ring the fan-out feeds.
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
	h.nextID++
	h.watchers[w.id] = w

	h.mu.Lock()
	if horizon := h.horizonLocked(); from < horizon {
		// The history this watcher needs is gone from the soft-state
		// window: tell it immediately rather than delivering a gapped
		// stream.
		h.lagOutLocked(w, fmt.Sprintf("requested version %v predates retained history (evicted through %v)", from, horizon), 0)
	} else {
		if w.rd != nil {
			h.addReaderLocked(w.rd)
		} else {
			h.index.add(w, r)
		}
		// Pin the retention chain for off-lock replay (arrival order
		// preserves per-key version order). The events are not copied here:
		// the dispatch goroutine streams them straight out of the pinned
		// segment arrays, and a replay larger than the watcher's buffer lags
		// it out with a resync there — the truncated stream a silent drop
		// would leave behind is precisely the gapped delivery the contract
		// forbids.
		w.replay = h.snapshotReplayLocked(w.replay, r, from)
	}
	h.mu.Unlock()
	// Announce the current frontier on the first dispatch, after the replay,
	// so the watcher establishes knowledge without waiting for the next
	// progress claim.
	w.q.moved.Store(true)
	h.met.watchers.Set(int64(len(h.watchers)))
	h.regMu.Unlock()
	h.rec.Record(flightrec.KindWatcherAdd, flightrec.Event{
		Comp: "core.hub", ID: w.id, Version: uint64(from), Detail: r.String(),
	})

	go w.run()
	return func() { h.cancel(w) }, nil
}

// cancel stops the watcher's ring before it detaches the watcher: a
// dispatcher that found its reader already gone would capture nothing and
// could announce a frontier over events it never delivered, while a stopped
// ring makes the dispatcher skip both.
func (h *Hub) cancel(w *hubWatcher) {
	h.regMu.Lock()
	delete(h.watchers, w.id)
	h.met.watchers.Set(int64(len(h.watchers)))
	h.regMu.Unlock()
	h.rec.Record(flightrec.KindWatcherRemove, flightrec.Event{Comp: "core.hub", ID: w.id})
	w.q.stop()
	h.mu.Lock()
	h.detachLocked(w)
	h.mu.Unlock()
}

// Wipe discards the hub's entire soft state — retained events and frontier —
// and resyncs every watcher. It models losing the watch system's storage:
// per §4.2.2 this costs latency, never data or consistency, because every
// consumer recovers from the authoritative store. Experiments use it for
// failure injection. Wipe holds the ingest lock throughout, so the wipe is
// atomic with respect to concurrent ingest.
func (h *Hub) Wipe() {
	h.regMu.Lock()
	defer h.regMu.Unlock()
	if h.closed {
		return
	}
	h.mu.Lock()
	for _, g := range h.segs {
		if g.sealed {
			h.met.sealedSegments.Add(-1)
			h.met.sealedBytes.Add(-g.bytes)
		}
		g.release(&h.segPool)
	}
	h.segs = nil
	h.count = 0
	h.segAcct.Release(h.chargedBytes)
	h.chargedBytes = 0
	h.evicted = Version(h.maxSeen.Load())
	h.frontier = VersionMap{}
	min := h.minResyncVersion()
	for _, w := range h.watchers {
		// Re-evaluate: everyone resyncs afresh, including previously lagged
		// watchers.
		w.lagged.Store(true)
		h.resyncs.Add(1)
		h.met.resyncs.Inc()
		h.detachLocked(w)
		w.q.lagOut(ResyncEvent{Range: w.rng, MinVersion: min, Reason: "watch system state wiped"})
	}
	h.met.retained.Set(0)
	h.mu.Unlock()
	h.rec.Record(flightrec.KindHubWipe, flightrec.Event{
		Comp: "core.hub", Version: uint64(min), N: int64(len(h.watchers)),
	})
}

// Frontier returns a copy of the current progress frontier.
func (h *Hub) Frontier() *VersionMap {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.frontier.Clone()
}

// frontierOver appends the frontier clipped to r to dst.
func (h *Hub) frontierOver(r keyspace.Range, dst []RangeVersion) []RangeVersion {
	h.mu.Lock()
	for _, seg := range h.frontier.Segments() {
		if fc := seg.Range.Intersect(r); !fc.Empty() {
			dst = append(dst, RangeVersion{Range: fc, Version: seg.Version})
		}
	}
	h.mu.Unlock()
	return dst
}

// Stats returns a snapshot of the hub's counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	st := HubStats{
		Appends:        h.appends,
		Evictions:      h.evictions,
		Delivered:      h.delivered,
		RetainedEvents: h.count,
		MaxSeen:        Version(h.maxSeen.Load()),
	}
	h.mu.Unlock()
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
	h.mu.Lock()
	h.closed = true
	h.segAcct.Release(h.chargedBytes)
	h.chargedBytes = 0
	h.mu.Unlock()
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
// its own bounded buffer and is resynced. A full-range watcher reads the
// hub's chain (reader.go); any other is fed through its ring. One dispatch
// goroutine serializes delivery.
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
	// rd is the watcher's position in the chain when its range is the
	// whole keyspace, fixed at registration; nil means the fan-out feeds q.
	rd *reader
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
	if r == keyspace.Full() {
		w.rd = newReader(w)
	}
	return w
}

// run is the watcher's dispatch loop. Each round it clears the moved flag,
// reads the frontier over its range, captures its reader's unread log,
// takes every queued event, delivers them, and then announces the frontier
// segments that changed since the last announcement. That order is what
// keeps progress truthful: an event the frontier F covers was appended (and
// queued, for a ring watcher) before F was raised, under the hub lock the
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
		caps := w.capture(w.caps[:0])
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
