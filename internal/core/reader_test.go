package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// countSink counts delivered events, taking the batch hand-off.
type countSink struct{ n atomic.Int64 }

func (c *countSink) OnEvent(ChangeEvent)          { c.n.Add(1) }
func (c *countSink) OnProgress(ProgressEvent)     {}
func (c *countSink) OnResync(ResyncEvent)         {}
func (c *countSink) OnEventBatch(e []ChangeEvent) { c.n.Add(int64(len(e))) }

// plainSink is countSink without the batch hand-off.
type plainSink struct{ c *countSink }

func (p plainSink) OnEvent(ev ChangeEvent)   { p.c.OnEvent(ev) }
func (p plainSink) OnProgress(ProgressEvent) {}
func (p plainSink) OnResync(ResyncEvent)     {}

// fixedBatch returns n preallocated events over keys prefix00.., so an
// append of it allocates nothing on the caller's side.
func fixedBatch(prefix string, n int) []ChangeEvent {
	evs := make([]ChangeEvent, n)
	for i := range evs {
		evs[i] = ChangeEvent{Key: keyspace.Key(fmt.Sprintf("%s%02d", prefix, i)), Mut: Mutation{Op: OpPut, Value: []byte("value")}}
	}
	return evs
}

// An ingest is one way a commit's batch enters the hub at version v.
type ingest func(h *Hub, evs []ChangeEvent, v Version) error

// ingests are the commit paths the allocation pins cover: the events and
// their claim as two calls, and folded into one.
var ingests = map[string]ingest{
	"batch+progress": func(h *Hub, evs []ChangeEvent, v Version) error {
		if err := h.AppendBatch(evs); err != nil {
			return err
		}
		return h.Progress(ProgressEvent{Range: keyspace.Full(), Version: v})
	},
	"commit": func(h *Hub, evs []ChangeEvent, v Version) error {
		return h.AppendCommit(evs, ProgressEvent{Range: keyspace.Full(), Version: v})
	},
}

func appendOnly(h *Hub, evs []ChangeEvent, _ Version) error { return h.AppendBatch(evs) }

// appender returns a closure that ingests batch at the next version and
// spins until every sink has received it: one commit's append and dispatch.
func appender(t *testing.T, h *Hub, in ingest, batch []ChangeEvent, sinks []*countSink) func() {
	var v Version
	var want int64
	return func() {
		v++
		for i := range batch {
			batch[i].Version = v
		}
		if err := in(h, batch, v); err != nil {
			t.Fatal(err)
		}
		want += int64(len(batch))
		for _, s := range sinks {
			for s.n.Load() < want {
				runtime.Gosched()
			}
		}
	}
}

// wedge blocks the first delivery until released, so its watcher falls
// behind.
type wedge struct {
	entered, release chan struct{}
	once             sync.Once
}

func newWedge() *wedge {
	return &wedge{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *wedge) OnEvent(ChangeEvent) {
	w.once.Do(func() { close(w.entered); <-w.release })
}

func watcherByID(h *Hub, id int64) *hubWatcher {
	h.regMu.Lock()
	defer h.regMu.Unlock()
	return h.watchers[id]
}

// segRefs returns each chain segment's reference count, oldest first.
func segRefs(h *Hub) []int32 {
	var out []int32
	h.mu.Lock()
	for _, g := range h.segs {
		out = append(out, g.refs.Load())
	}
	h.mu.Unlock()
	return out
}

// TestReaderAppendAllocatesNothing pins the reader path's whole point: an
// AppendBatch into a hub that 64 full-range watchers read does no
// per-reader work. Appending and dispatching allocate nothing, and no
// reader's ring is touched.
func TestReaderAppendAllocatesNothing(t *testing.T) {
	h := NewHub(HubConfig{Retention: 256, Metrics: metrics.NewRegistry()})
	defer h.Close()
	var sinks []*countSink
	for i := 0; i < 64; i++ {
		s := &countSink{}
		cancel, err := h.Watch(keyspace.Full(), NoVersion, s)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		sinks = append(sinks, s)
	}
	step := appender(t, h, appendOnly, fixedBatch("k", 8), sinks)
	for i := 0; i < 100; i++ { // past several seals, so the pool recycles
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("AppendBatch into 64 readers: %v allocs, want 0", n)
	}
	h.regMu.Lock()
	defer h.regMu.Unlock()
	for id, w := range h.watchers {
		if w.rd == nil {
			t.Fatalf("watcher %d is not a reader", id)
		}
		if n := w.q.touches(); n != 0 {
			t.Fatalf("watcher %d's ring touched %d times", id, n)
		}
	}
}

// TestIdleObserversAllocateNothing pins that an idle tracer, a flight
// recorder and an unpressured governor cost the hot path no allocation:
// committing and delivering allocate nothing on the ring path (a narrow
// watch) and on the reader path (a covering watch), with any of them
// attached, whether the commit enters as AppendBatch and Progress or as one
// AppendCommit. The row without observers is the steady-state dispatch pin
// for both paths.
func TestIdleObserversAllocateNothing(t *testing.T) {
	observers := map[string]func(*HubConfig) func(){
		"none": func(*HubConfig) func() { return func() {} },
		"tracer": func(c *HubConfig) func() {
			c.Tracer = trace.New(trace.Config{SampleEvery: 0, Metrics: c.Metrics})
			return func() {}
		},
		"recorder": func(c *HubConfig) func() {
			c.Recorder = flightrec.New(flightrec.Config{Metrics: c.Metrics})
			return func() {}
		},
		"governor": func(c *HubConfig) func() {
			g := govern.NewGovernor(govern.Config{Budget: 1 << 30, Metrics: c.Metrics})
			c.Governor = g
			return g.Close
		},
	}
	paths := map[string]keyspace.Range{
		"ring":   {Low: "k", High: "l"},
		"reader": keyspace.Full(),
	}
	for oname, attach := range observers {
		for pname, r := range paths {
			for _, batch := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/batch=%v", oname, pname, batch), func(t *testing.T) {
					for iname, in := range ingests {
						t.Run(iname, func(t *testing.T) {
							cfg := HubConfig{Retention: 256, Metrics: metrics.NewRegistry()}
							defer attach(&cfg)()
							h := NewHub(cfg)
							defer h.Close()
							s := &countSink{}
							var cb WatchCallback = plainSink{s}
							if batch {
								cb = s
							}
							cancel, err := h.Watch(r, NoVersion, cb)
							if err != nil {
								t.Fatal(err)
							}
							defer cancel()
							step := appender(t, h, in, fixedBatch("k", 8), []*countSink{s})
							for i := 0; i < 100; i++ {
								step()
							}
							if n := testing.AllocsPerRun(200, step); n != 0 {
								t.Fatalf("commit and delivery: %v allocs, want 0", n)
							}
						})
					}
				})
			}
		}
	}
}

// TestReaderWedgedLagsOutAndUnpins: a reader whose callback blocks is lagged
// out once its unread events pass WatcherBuffer, and the lag-out releases
// its pins — the chain's segments are left with the chain's own reference
// plus, at most, the one the wedged delivery holds.
func TestReaderWedgedLagsOutAndUnpins(t *testing.T) {
	const buffer = 16
	h := NewHub(HubConfig{Retention: 64, WatcherBuffer: buffer, Metrics: metrics.NewRegistry()})
	defer h.Close()
	gate := newWedge()
	var resynced atomic.Int64
	cancel, err := h.Watch(keyspace.Full(), NoVersion, Funcs{
		Event:  gate.OnEvent,
		Resync: func(ResyncEvent) { resynced.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	h.Append(put("k", 1))
	<-gate.entered // the dispatcher holds event 1 and is wedged
	w := watcherByID(h, 0)
	var v Version = 1
	for !w.lagged.Load() {
		if v > 2*buffer {
			t.Fatalf("no lag-out after %d events with a buffer of %d", v, buffer)
		}
		v++
		h.Append(put("k", v))
	}
	if v != buffer+2 {
		t.Fatalf("lagged out at v%d, want v%d: the first event past the buffer", v, buffer+2)
	}
	for ; v < 200; v++ { // the chain seals and evicts past the old position
		h.Append(put("k", v+1))
	}
	extra := 0
	for _, n := range segRefs(h) {
		extra += int(n) - 1
	}
	if extra > 1 {
		t.Fatalf("wedged, lagged-out reader still pins: refs %v", segRefs(h))
	}
	close(gate.release)
	waitUntil(t, "resync", func() bool { return resynced.Load() == 1 })
	waitUntil(t, "the delivery's pin released", func() bool {
		for _, n := range segRefs(h) {
			if n != 1 {
				return false
			}
		}
		return true
	})
}

// TestReaderOutlivesRetention: a reader's pins, not the retention window,
// bound what it can still read, and the lag radar counts its unread events. Under Retention 64 and WatcherBuffer 1024,
// a reader 500 events behind receives every one of them, in order, with no
// resync — the chain evicted them, the reader's pins kept them.
func TestReaderOutlivesRetention(t *testing.T) {
	h := NewHub(HubConfig{Retention: 64, WatcherBuffer: 1024, Metrics: metrics.NewRegistry()})
	defer h.Close()
	gate := newWedge()
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, Funcs{
		Event:  func(ev ChangeEvent) { gate.OnEvent(ev); c.OnEvent(ev) },
		Resync: c.OnResync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	h.Append(put("k", 1))
	<-gate.entered
	for v := Version(2); v <= 501; v++ {
		h.Append(put("k", v))
	}
	if st := h.Stats(); st.RetainedEvents > 64 || st.Evictions == 0 {
		t.Fatalf("retained %d, evicted %d: the window did not roll past the reader", st.RetainedEvents, st.Evictions)
	}
	if d := h.WatcherLags()[0].QueueDepth; d != 500 {
		t.Fatalf("radar queue depth %d, want the reader's 500 unread events", d)
	}
	close(gate.release)
	waitUntil(t, "all 501 events", func() bool { evs, _, _ := c.snapshot(); return len(evs) == 501 })
	evs, _, rs := c.snapshot()
	if len(rs) != 0 {
		t.Fatalf("reader resynced: %v", rs)
	}
	for i, ev := range evs {
		if ev.Version != Version(i+1) {
			t.Fatalf("event %d is v%d, want v%d", i, ev.Version, i+1)
		}
	}
	waitUntil(t, "pins released", func() bool {
		refs := segRefs(h)
		for i, n := range refs {
			if want := int32(1); n != want && !(i == len(refs)-1 && n == 2) {
				return false // a caught-up reader pins only the tail
			}
		}
		return true
	})
}

// TestShedRanksReadersByWhatTheyPin: the governor's shed rung ranks a reader
// by its unread events at the window's mean retained footprint, so a
// stalled covering reader is shed before a ring watcher holding a smaller
// backlog — even though the reader's ring holds nothing.
func TestShedRanksReadersByWhatTheyPin(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := flightrec.New(flightrec.Config{Metrics: reg})
	gov := govern.NewGovernor(govern.Config{Budget: 1 << 24, Metrics: reg})
	defer gov.Close()
	h := NewHub(HubConfig{WatcherBuffer: 1 << 12, Metrics: reg, Recorder: rec, Governor: gov})
	defer h.Close()
	reader, ring := newWedge(), newWedge()
	defer close(reader.release)
	defer close(ring.release)
	cancelReader, err := h.Watch(keyspace.Full(), NoVersion, Funcs{Event: reader.OnEvent}) // id 0
	if err != nil {
		t.Fatal(err)
	}
	defer cancelReader()
	cancelRing, err := h.Watch(keyspace.Prefix("b/"), NoVersion, Funcs{Event: ring.OnEvent}) // id 1
	if err != nil {
		t.Fatal(err)
	}
	defer cancelRing()
	var v Version
	for i := 0; i < 20; i++ { // the ring watcher's backlog
		if i == 1 { // both dispatchers now hold b/00, and stay wedged
			<-reader.entered
			<-ring.entered
		}
		v++
		h.Append(ChangeEvent{Key: keyspace.Key(fmt.Sprintf("b/%02d", i)), Mut: Mutation{Op: OpPut, Value: make([]byte, 64)}, Version: v})
	}
	for i := 0; i < 200; i++ { // the reader's, which the ring never sees
		v++
		h.Append(ChangeEvent{Key: keyspace.Key(fmt.Sprintf("a/%03d", i)), Mut: Mutation{Op: OpPut, Value: make([]byte, 64)}, Version: v})
	}
	if watcherByID(h, 1).q.held() == 0 {
		t.Fatal("ring watcher holds no backlog")
	}
	gov.Account("test").Charge(1 << 24) // straight to Reject: relief sheds
	waitUntil(t, "a shed", func() bool {
		for _, r := range rec.Tail(64) {
			if r.Kind == flightrec.KindWatcherLagOut {
				return true
			}
		}
		return false
	})
	for _, r := range rec.Tail(64) {
		if r.Kind == flightrec.KindWatcherLagOut {
			if r.ID != 0 {
				t.Fatalf("first shed was watcher %d (%s), want the stalled reader 0", r.ID, r.Detail)
			}
			break
		}
	}
}

// TestCancelStopsRingBeforeDetaching pins cancel's order: it stops the
// watcher's ring before it takes the hub lock to drop the watcher's reader.
// A dispatcher that found its reader gone while its ring was still open
// would capture nothing and could announce a frontier over events it never
// delivered. With the hub lock held, as a slow ingest call holds it, cancel
// must still reach a stopped ring, and the reader must still be in place.
func TestCancelStopsRingBeforeDetaching(t *testing.T) {
	h := NewHub(HubConfig{Metrics: metrics.NewRegistry()})
	defer h.Close()
	cancel, err := h.Watch(keyspace.Full(), NoVersion, Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	w := watcherByID(h, 0)
	h.mu.Lock()
	done := make(chan struct{})
	go func() { cancel(); close(done) }()
	deadline := time.Now().Add(5 * time.Second)
	for !w.q.isCancelled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stopped, attached := w.q.isCancelled(), len(w.rd.segs) > 0
	h.mu.Unlock()
	<-done
	if !stopped || !attached {
		t.Fatalf("under the hub lock, cancel left ring stopped=%v, reader attached=%v; want a stopped ring and the reader still attached", stopped, attached)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(w.rd.segs) != 0 || len(h.readers) != 0 {
		t.Fatalf("cancel left the reader attached")
	}
}
