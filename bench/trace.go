package main

import (
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

const (
	// sampleEvery: one commit (or round, or server-side watch) in this many
	// records spans and latency samples; counts and busy times cover them all.
	sampleEvery = 16
	// stampSlots sizes the per-version stamp rings. Far more than the commits
	// ever in flight (one burst), so a slot is never reused while it is read.
	stampSlots = 1 << 12
	spanSlots  = 1 << 17
)

// sampleBuf is a fixed buffer of latency samples that several goroutines
// fill; samples beyond its capacity are counted and dropped.
type sampleBuf struct {
	buf []int64
	n   atomic.Int64
}

func newSampleBuf(size int) *sampleBuf {
	b := &sampleBuf{buf: make([]int64, size)}
	clear(b.buf) // touch every page
	return b
}

func (b *sampleBuf) add(v int64) {
	if i := b.n.Add(1) - 1; i < int64(len(b.buf)) {
		b.buf[i] = v
	}
}

func (b *sampleBuf) reset() { b.n.Store(0) }

// sorted returns the samples taken since reset, sorted in place.
func (b *sampleBuf) sorted() []int64 {
	s := b.buf[:min(b.n.Load(), int64(len(b.buf)))]
	slices.Sort(s)
	return s
}

// tracer is the traced pass's instrumentation: the harness's own wrappers at
// each layer boundary record spans, busy times and counts here. Everything is
// preallocated; a wrapper on the data path does clock reads, atomic adds and
// array stores only.
type tracer struct {
	h     *harness
	spans *spanRing

	// Per-version stamps, indexed version mod stampSlots, written on the
	// producer's goroutine inside Commit and read by the dispatch side.
	appendSpan [stampSlots]atomic.Uint32
	appendDone [stampSlots]atomic.Int64

	// curCommit is the open mvcc.commit span, set by the producer around
	// Commit; the ingester wrapper runs on that same goroutine.
	curCommit uint32
	// curSnap is the open client-side snapshot span; one recovery runs at a
	// time, so the server-side snapshot span names it as parent.
	curSnap atomic.Uint32

	appendNs, appendEvents       atomic.Int64 // sampled commits only
	progressNs, progressCalls    atomic.Int64 // sampled commits only
	dispatchCalls, dispatchEvs   atomic.Int64 // batches handed to the server sink
	enqueueNs                    atomic.Int64 // time inside the sink
	hubWatchNs, hubWatchCalls    atomic.Int64
	replayNs, replayEvents       atomic.Int64
	storeSnapNs, storeSnapEnts   atomic.Int64
	clientReads                  atomic.Int64
	dispatchWait, transit        *sampleBuf
	clientWatchRTT, clientSnapRT *sampleBuf

	mu      sync.Mutex
	watches []*tracedWatch // server-side watches in arrival order, for pairing
	// pair makes each server-side watch keep per-version stamps so the
	// client-side consumer paired with it can measure transit (fanout_tcp).
	pair bool
}

func newTracer(h *harness) *tracer {
	return &tracer{
		h:              h,
		spans:          newSpanRing(spanSlots),
		dispatchWait:   newSampleBuf(1 << 17),
		transit:        newSampleBuf(1 << 17),
		clientWatchRTT: newSampleBuf(1 << 17),
		clientSnapRT:   newSampleBuf(1 << 10),
	}
}

func (t *tracer) resetSamples() {
	t.dispatchWait.reset()
	t.transit.reset()
	t.clientWatchRTT.reset()
	t.clientSnapRT.reset()
}

// tracedIngester sits between mvcc and core: the store's CDC tap calls it and
// it calls the hub.
type tracedIngester struct {
	t     *tracer
	inner core.Ingester
}

func (ti tracedIngester) Append(ev core.ChangeEvent) error { return ti.inner.Append(ev) }

func (ti tracedIngester) AppendBatch(evs []core.ChangeEvent) error {
	v := uint64(evs[0].Version)
	if v%sampleEvery != 0 {
		return ti.inner.AppendBatch(evs)
	}
	t := ti.t
	t0 := t.h.now()
	err := ti.inner.AppendBatch(evs)
	t1 := t.h.now()
	id := t.spans.add(spAppend, t.h.ph(), v, t.curCommit, t0, t1)
	t.appendSpan[v%stampSlots].Store(id)
	t.appendDone[v%stampSlots].Store(t1)
	t.appendNs.Add(t1 - t0)
	t.appendEvents.Add(int64(len(evs)))
	return err
}

func (ti tracedIngester) Progress(p core.ProgressEvent) error {
	v := uint64(p.Version)
	if v%sampleEvery != 0 {
		return ti.inner.Progress(p)
	}
	t := ti.t
	t0 := t.h.now()
	err := ti.inner.Progress(p)
	t1 := t.h.now()
	t.spans.add(spProgress, t.h.ph(), v, t.curCommit, t0, t1)
	t.progressNs.Add(t1 - t0)
	t.progressCalls.Add(1)
	return err
}

// tracedWatchable sits between core and remote: the server registers its
// connection sinks through it, so every batch the hub dispatches to the
// server passes through a tracedWatch.
type tracedWatchable struct {
	t     *tracer
	inner core.Watchable
}

func (tw tracedWatchable) Watch(r keyspace.Range, from core.Version, cb core.WatchCallback) (core.Cancel, error) {
	t := tw.t
	w := &tracedWatch{t: t, cb: cb}
	w.batch, _ = cb.(core.EventBatchCallback)
	if t.pair {
		w.sinkDone = make([]atomic.Int64, stampSlots)
		w.sinkSpan = make([]atomic.Uint32, stampSlots)
	}
	call := uint64(t.hubWatchCalls.Add(1) - 1)
	w.trace = call / uint64(max(t.h.w.consumers, 1)) // the round, on catchup_tcp
	w.sampled = w.trace%sampleEvery == 0
	t0 := t.h.now()
	cancel, err := tw.inner.Watch(r, from, w)
	t1 := t.h.now()
	w.watchRet.Store(t1)
	t.hubWatchNs.Add(t1 - t0)
	if w.sampled {
		t.spans.add(spHubWatch, t.h.ph(), w.trace, 0, t0, t1)
	}
	if err != nil {
		return nil, err
	}
	if t.pair {
		t.mu.Lock()
		t.watches = append(t.watches, w)
		t.mu.Unlock()
	}
	return func() {
		cancel()
		if n, end := w.events.Load(), w.lastEnd.Load(); n > 0 && t.h.w.kind == kindCatchup {
			start := min(w.watchRet.Load(), end)
			t.replayNs.Add(end - start)
			t.replayEvents.Add(n)
			if w.sampled {
				t.spans.add(spReplay, t.h.ph(), w.trace, 0, start, end)
			}
		}
	}, nil
}

// watchAt returns the i-th server-side watch once it has registered.
func (t *tracer) watchAt(i int) *tracedWatch {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < len(t.watches) {
		return t.watches[i]
	}
	return nil
}

// tracedWatch wraps one server sink. It implements EventBatchCallback so the
// hub keeps handing it whole ring drains, as it would hand the sink itself.
type tracedWatch struct {
	t       *tracer
	cb      core.WatchCallback
	batch   core.EventBatchCallback
	trace   uint64
	sampled bool

	watchRet atomic.Int64 // when hub.Watch returned
	lastEnd  atomic.Int64 // when the last batch left the sink
	events   atomic.Int64

	// Per-version stamps for the paired client-side consumer (fanout_tcp).
	sinkDone []atomic.Int64
	sinkSpan []atomic.Uint32
}

func (w *tracedWatch) OnEvent(ev core.ChangeEvent) {
	one := [1]core.ChangeEvent{ev}
	w.OnEventBatch(one[:])
}

func (w *tracedWatch) OnEventBatch(evs []core.ChangeEvent) {
	t := w.t
	t0 := t.h.now()
	if w.batch != nil {
		w.batch.OnEventBatch(evs)
	} else {
		for i := range evs {
			w.cb.OnEvent(evs[i])
		}
	}
	t1 := t.h.now()
	n := int64(len(evs))
	t.dispatchCalls.Add(1)
	t.dispatchEvs.Add(n)
	t.enqueueNs.Add(t1 - t0)
	w.lastEnd.Store(t1)
	w.events.Add(n)
	if w.sinkDone == nil {
		return
	}
	timing := t.h.timing.Load()
	var prev uint64
	for i := range evs {
		v := uint64(evs[i].Version)
		if v == prev || v%sampleEvery != 0 {
			continue
		}
		prev = v
		parent := t.appendSpan[v%stampSlots].Load()
		if timing {
			appended := t.appendDone[v%stampSlots].Load()
			t.dispatchWait.add(t0 - appended)
			t.spans.add(spDispatchWait, t.h.ph(), v, parent, appended, t0)
		}
		w.sinkSpan[v%stampSlots].Store(t.spans.add(spEnqueue, t.h.ph(), v, parent, t0, t1))
		w.sinkDone[v%stampSlots].Store(t1)
	}
}

func (w *tracedWatch) OnProgress(p core.ProgressEvent) { w.cb.OnProgress(p) }
func (w *tracedWatch) OnResync(r core.ResyncEvent)     { w.cb.OnResync(r) }

// tracedSnapshotter wraps a Snapshotter on either side of the wire: under the
// server it times the store's scan, at the client it times the whole chunked
// transfer.
type tracedSnapshotter struct {
	t      *tracer
	inner  core.Snapshotter
	client bool
}

func (ts tracedSnapshotter) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	t := ts.t
	t0 := t.h.now()
	if ts.client {
		id := t.spans.begin(spClientSnap, t.h.ph(), t.h.round.Load(), t.h.curRecover, t0)
		t.curSnap.Store(id)
		entries, at, err := ts.inner.SnapshotRange(r)
		t1 := t.h.now()
		t.spans.finish(id, t1)
		t.clientSnapRT.add(t1 - t0)
		return entries, at, err
	}
	entries, at, err := ts.inner.SnapshotRange(r)
	t1 := t.h.now()
	t.spans.add(spStoreSnap, t.h.ph(), t.h.round.Load(), t.curSnap.Load(), t0, t1)
	t.storeSnapNs.Add(t1 - t0)
	t.storeSnapEnts.Add(int64(len(entries)))
	return entries, at, err
}

// countingConn sits under the client and counts its socket reads.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}
