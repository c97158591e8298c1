package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// collector records watch callbacks for assertions.
type collector struct {
	mu       sync.Mutex
	events   []ChangeEvent
	progress []ProgressEvent
	resyncs  []ResyncEvent
}

func (c *collector) OnEvent(ev ChangeEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}
func (c *collector) OnProgress(p ProgressEvent) {
	c.mu.Lock()
	c.progress = append(c.progress, p)
	c.mu.Unlock()
}
func (c *collector) OnResync(r ResyncEvent) {
	c.mu.Lock()
	c.resyncs = append(c.resyncs, r)
	c.mu.Unlock()
}

func (c *collector) snapshot() ([]ChangeEvent, []ProgressEvent, []ResyncEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ChangeEvent(nil), c.events...),
		append([]ProgressEvent(nil), c.progress...),
		append([]ResyncEvent(nil), c.resyncs...)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// numericSplit partitions the numeric keys [0, n) into p contiguous ranges.
func numericSplit(n, p int) []keyspace.Range {
	out := make([]keyspace.Range, p)
	for i := range out {
		out[i] = keyspace.NumericRange(i*n/p, (i+1)*n/p)
	}
	return out
}

func put(k string, v Version) ChangeEvent {
	return ChangeEvent{Key: keyspace.Key(k), Mut: Mutation{Op: OpPut, Value: []byte(fmt.Sprintf("%s@%d", k, v))}, Version: v}
}

func TestHubDeliversLiveEvents(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for i := 1; i <= 5; i++ {
		if err := h.Append(put("k", Version(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "5 events", func() bool { evs, _, _ := c.snapshot(); return len(evs) == 5 })
	evs, _, _ := c.snapshot()
	for i, ev := range evs {
		if ev.Version != Version(i+1) || ev.Key != "k" {
			t.Fatalf("event %d = %v", i, ev)
		}
	}
}

func TestHubReplayAndFilter(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	// Pre-populate before any watcher exists.
	h.Append(put("a", 1))
	h.Append(put("m", 2))
	h.Append(put("a", 3))
	h.Append(put("z", 4))

	var c collector
	cancel, err := h.Watch(keyspace.Range{Low: "a", High: "n"}, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	waitUntil(t, "replayed events", func() bool {
		evs, _, _ := c.snapshot()
		return len(evs) == 2
	})
	evs, _, rs := c.snapshot()
	// from=1 excludes a@1; range excludes z@4.
	if evs[0].Key != "m" || evs[0].Version != 2 || evs[1].Key != "a" || evs[1].Version != 3 {
		t.Fatalf("replay = %v", evs)
	}
	if len(rs) != 0 {
		t.Fatalf("unexpected resync %v", rs)
	}
}

func TestHubPerKeyOrder(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	var c collector
	cancel, _ := h.Watch(keyspace.Full(), NoVersion, &c)
	defer cancel()

	const n = 200
	for i := 1; i <= n; i++ {
		h.Append(put(fmt.Sprintf("k%d", i%5), Version(i)))
	}
	waitUntil(t, "all events", func() bool { evs, _, _ := c.snapshot(); return len(evs) == n })
	evs, _, _ := c.snapshot()
	last := map[keyspace.Key]Version{}
	for _, ev := range evs {
		if ev.Version <= last[ev.Key] {
			t.Fatalf("per-key order violated at %v after %v", ev, last[ev.Key])
		}
		last[ev.Key] = ev.Version
	}
}

// TestHubHorizonOfTrimmedHeadSegment: retention 200 gives 64-event segments,
// so 300 appends retire the first segment and trim 36 slots of
// the next, through version 100. A watch from 99 resyncs and a watch from 100
// does not, whether the head segment's versions arrived sorted or in swapped
// pairs (its last trimmed slot then holds 99). The governor's hub account
// holds every slot of the chain until its segment retires: relieveEvict
// reports the bytes of the segment it retires, and Wipe and Close return the
// account to 0.
func TestHubHorizonOfTrimmedHeadSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		ver  func(i int) Version // version of the i-th append, from 1
	}{
		{"sorted", func(i int) Version { return Version(i) }},
		{"swapped pairs", func(i int) Version { return Version(i + 1 - 2*(1-i%2)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gov := govern.NewGovernor(govern.Config{Budget: 1 << 30, Metrics: metrics.NewRegistry()})
			defer gov.Close()
			acct := gov.Account("hub")
			h := NewHub(HubConfig{Retention: 200, Metrics: metrics.NewRegistry(), Governor: gov})
			defer h.Close()
			var evs []ChangeEvent
			for i := 1; i <= 300; i++ {
				evs = append(evs, put(fmt.Sprintf("k%03d", i), tc.ver(i)))
			}
			if err := h.AppendBatch(evs); err != nil {
				t.Fatal(err)
			}
			footprint := func(evs []ChangeEvent) (n int64) {
				for i := range evs {
					n += evFootprint(&evs[i])
				}
				return n
			}
			if got, want := acct.Used(), footprint(evs[64:]); got != want {
				t.Fatalf("hub account %d, want %d: the chain's slots from event 65 on", got, want)
			}

			var gapped collector
			cancel, err := h.Watch(keyspace.Full(), 99, &gapped)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			waitUntil(t, "resync from 99", func() bool { _, _, rs := gapped.snapshot(); return len(rs) == 1 })
			var whole collector
			cancel2, err := h.Watch(keyspace.Full(), 100, &whole)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel2()
			waitUntil(t, "replay from 100", func() bool { evs, _, _ := whole.snapshot(); return len(evs) == 200 })
			if _, _, rs := whole.snapshot(); len(rs) != 0 {
				t.Fatalf("watch from the newest trimmed version resynced: %v", rs)
			}

			if got, want := h.relieveEvict(1), footprint(evs[64:128]); got != want {
				t.Fatalf("relieveEvict freed %d, want %d: the second segment, retired", got, want)
			}
			if got, want := acct.Used(), footprint(evs[128:]); got != want {
				t.Fatalf("hub account %d after relief, want %d", got, want)
			}
			h.Wipe()
			if got := acct.Used(); got != 0 {
				t.Fatalf("hub account %d after Wipe, want 0", got)
			}
			if err := h.AppendBatch(evs[:100]); err != nil {
				t.Fatal(err)
			}
			h.Close()
			if got := acct.Used(); got != 0 {
				t.Fatalf("hub account %d after Close, want 0", got)
			}
		})
	}
}

func TestHubWatchFromEvictedHistoryResyncs(t *testing.T) {
	h := NewHub(HubConfig{Retention: 10})
	defer h.Close()
	for i := 1; i <= 50; i++ {
		h.Append(put("k", Version(i)))
	}
	var c collector
	cancel, err := h.Watch(keyspace.Full(), 5, &c) // v5 long evicted
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	waitUntil(t, "resync", func() bool { _, _, rs := c.snapshot(); return len(rs) == 1 })
	evs, _, rs := c.snapshot()
	if len(evs) != 0 {
		t.Fatalf("gapped stream delivered events: %v", evs)
	}
	if rs[0].MinVersion < 40 {
		t.Fatalf("resync MinVersion = %v, want >= evicted horizon", rs[0].MinVersion)
	}
	// A watcher at the horizon is fine.
	var c2 collector
	cancel2, _ := h.Watch(keyspace.Full(), rs[0].MinVersion, &c2)
	defer cancel2()
	h.Append(put("k", 60))
	waitUntil(t, "fresh event", func() bool { evs, _, _ := c2.snapshot(); return len(evs) >= 1 })
	if _, _, rs2 := c2.snapshot(); len(rs2) != 0 {
		t.Fatalf("healthy watcher resynced: %v", rs2)
	}
}

func TestHubSlowWatcherLagsOut(t *testing.T) {
	h := NewHub(HubConfig{WatcherBuffer: 8})
	defer h.Close()

	block := make(chan struct{})
	var mu sync.Mutex
	var resynced []ResyncEvent
	var delivered int
	cb := Funcs{
		Event: func(ChangeEvent) {
			<-block // wedge the consumer
			mu.Lock()
			delivered++
			mu.Unlock()
		},
		Resync: func(r ResyncEvent) {
			mu.Lock()
			resynced = append(resynced, r)
			mu.Unlock()
		},
	}
	cancel, _ := h.Watch(keyspace.Full(), NoVersion, cb)
	defer cancel()

	for i := 1; i <= 100; i++ {
		h.Append(put("k", Version(i)))
	}
	close(block)
	waitUntil(t, "lag-out resync", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(resynced) == 1
	})
	mu.Lock()
	r := resynced[0]
	mu.Unlock()
	// The lag-out fires at the moment of overflow, so MinVersion is the
	// highest version the hub had seen then — at least the buffer size, and
	// never beyond the last append.
	if r.MinVersion < 8 || r.MinVersion > 100 {
		t.Fatalf("resync MinVersion = %v, want within [8,100]", r.MinVersion)
	}
	// After lag-out the hub stops feeding this watcher.
	before := h.Stats().Delivered
	h.Append(put("k", 101))
	if after := h.Stats().Delivered; after != before {
		t.Fatalf("lagged watcher still receiving (delivered %d -> %d)", before, after)
	}
}

func TestHubProgressClippedToRange(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	var c collector
	cancel, _ := h.Watch(keyspace.Range{Low: "f", High: "p"}, NoVersion, &c)
	defer cancel()

	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 9})
	waitUntil(t, "progress", func() bool { _, ps, _ := c.snapshot(); return len(ps) == 1 })
	_, ps, _ := c.snapshot()
	if ps[0].Range != (keyspace.Range{Low: "f", High: "p"}) || ps[0].Version != 9 {
		t.Fatalf("progress = %v", ps[0])
	}
	// Disjoint progress is not forwarded.
	h.Progress(ProgressEvent{Range: keyspace.Range{Low: "x", High: "z"}, Version: 12})
	h.Append(put("g", 13)) // fence: proves the disjoint progress would have arrived by now
	waitUntil(t, "fence event", func() bool { evs, _, _ := c.snapshot(); return len(evs) == 1 })
	if _, ps, _ := c.snapshot(); len(ps) != 1 {
		t.Fatalf("disjoint progress forwarded: %v", ps)
	}
}

func TestHubInitialFrontierDelivered(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 7})

	var c collector
	cancel, _ := h.Watch(keyspace.Range{Low: "a", High: "m"}, 7, &c)
	defer cancel()
	waitUntil(t, "initial frontier", func() bool { _, ps, _ := c.snapshot(); return len(ps) >= 1 })
	_, ps, _ := c.snapshot()
	if ps[0].Version != 7 {
		t.Fatalf("initial frontier = %v", ps[0])
	}
}

func TestHubFrontierQuery(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	h.Progress(ProgressEvent{Range: keyspace.Range{Low: "a", High: "m"}, Version: 5})
	h.Progress(ProgressEvent{Range: keyspace.Range{Low: "m", High: keyspace.Inf}, Version: 3})
	f := h.Frontier()
	if got := f.MinOver(keyspace.Range{Low: "a", High: keyspace.Inf}); got != 3 {
		t.Fatalf("frontier MinOver = %v, want 3", got)
	}
	// The uncovered slice ["", "a") means no full-keyspace completeness yet.
	if got := f.MinOver(keyspace.Full()); got != NoVersion {
		t.Fatalf("frontier over gap = %v, want NoVersion", got)
	}
}

// TestHubProgressAllocatesNothing pins the per-commit cost the store's
// progress claim adds: raising the frontier, waking each overlapping watcher
// and its dispatcher's read and announcement allocate nothing.
func TestHubProgressAllocatesNothing(t *testing.T) {
	h := NewHub(HubConfig{Metrics: metrics.NewRegistry()})
	defer h.Close()
	const watchers = 8
	var delivered atomic.Int64
	for _, r := range numericSplit(1024, watchers) {
		cancel, err := h.Watch(r, NoVersion, Funcs{Progress: func(ProgressEvent) { delivered.Add(1) }})
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
	}
	var v Version
	progress := func() {
		v++
		if err := h.Progress(ProgressEvent{Range: keyspace.Full(), Version: v}); err != nil {
			t.Fatal(err)
		}
		// Every watcher announces each claim before the next is made, so
		// none is folded into a later one and the count is exact.
		for delivered.Load() < int64(v)*watchers {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		progress()
	}
	if n := testing.AllocsPerRun(200, progress); n != 0 {
		t.Fatalf("Progress over %d watchers: %v allocs, want 0", watchers, n)
	}
}

// ringCap returns the capacity of the watcher's queued-event array.
func ringCap(q *ring) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return cap(q.evs)
}

// TestHubReplayOnlyWatchAllocatesNoRing: a watch that replays retained
// history and is told the frontier, but never sees a live event, never
// allocates a queue — the frontier rides no slot.
func TestHubReplayOnlyWatchAllocatesNoRing(t *testing.T) {
	h := NewHub(HubConfig{Metrics: metrics.NewRegistry()})
	defer h.Close()
	for i := 1; i <= 32; i++ {
		h.Append(put(fmt.Sprintf("k%02d", i), Version(i)))
	}
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 32})
	var c collector
	cancel, err := h.Watch(keyspace.Full(), 16, &c)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replay and frontier", func() bool {
		evs, ps, _ := c.snapshot()
		return len(evs) == 16 && len(ps) > 0 && ps[len(ps)-1].Version == 32
	})
	if n := ringCap(watcherRing(h, 0)); n != 0 {
		t.Fatalf("replay-only watch allocated a ring of %d slots", n)
	}
	cancel()
}

// TestHubIdleWatcherQueuesNothingOnProgress: progress never occupies a
// watcher's queue, however many claims arrive.
func TestHubIdleWatcherQueuesNothingOnProgress(t *testing.T) {
	h := NewHub(HubConfig{WatcherBuffer: 4, Metrics: metrics.NewRegistry()})
	defer h.Close()
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	q := watcherRing(h, 0)
	for v := Version(1); v <= 10000; v++ {
		h.Progress(ProgressEvent{Range: keyspace.Full(), Version: v})
		if d := q.depth(); d != 0 {
			t.Fatalf("depth %d after progress v%d, want 0", d, v)
		}
	}
	waitUntil(t, "final frontier", func() bool {
		_, ps, _ := c.snapshot()
		return len(ps) > 0 && ps[len(ps)-1].Version == 10000
	})
	if _, _, rs := c.snapshot(); len(rs) != 0 {
		t.Fatalf("progress alone resynced the watcher: %v", rs)
	}
}

func TestHubWipeResyncsEverything(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	var c collector
	cancel, _ := h.Watch(keyspace.Full(), NoVersion, &c)
	defer cancel()
	h.Append(put("k", 1))
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 1})
	waitUntil(t, "event before wipe", func() bool { evs, _, _ := c.snapshot(); return len(evs) == 1 })

	h.Wipe()
	waitUntil(t, "wipe resync", func() bool { _, _, rs := c.snapshot(); return len(rs) == 1 })
	st := h.Stats()
	if st.RetainedEvents != 0 {
		t.Fatalf("soft state survived wipe: %+v", st)
	}
	if h.Frontier().MaxOver(keyspace.Full()) != NoVersion {
		t.Fatal("frontier survived wipe")
	}
	// New watchers below the wipe horizon also resync.
	var c2 collector
	cancel2, _ := h.Watch(keyspace.Full(), NoVersion, &c2)
	defer cancel2()
	waitUntil(t, "post-wipe watcher resync", func() bool { _, _, rs := c2.snapshot(); return len(rs) == 1 })
}

func TestHubCancelStopsDelivery(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	var c collector
	cancel, _ := h.Watch(keyspace.Full(), NoVersion, &c)
	h.Append(put("k", 1))
	waitUntil(t, "event", func() bool { evs, _, _ := c.snapshot(); return len(evs) == 1 })
	cancel()
	cancel() // idempotent
	h.Append(put("k", 2))
	time.Sleep(10 * time.Millisecond)
	if evs, _, _ := c.snapshot(); len(evs) != 1 {
		t.Fatalf("event delivered after cancel: %v", evs)
	}
	if h.Stats().Watchers != 0 {
		t.Fatal("watcher still registered after cancel")
	}
}

func TestHubValidation(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	if _, err := h.Watch(keyspace.Full(), 0, nil); err == nil {
		t.Error("nil callback accepted")
	}
	if _, err := h.Watch(keyspace.Range{}, 0, &collector{}); err == nil {
		t.Error("empty range accepted")
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub(HubConfig{})
	var c collector
	_, err := h.Watch(keyspace.Full(), 0, &c)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	h.Close() // idempotent
	if err := h.Append(put("k", 1)); err != ErrClosed {
		t.Fatalf("Append after close = %v", err)
	}
	if err := h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 1}); err != ErrClosed {
		t.Fatalf("Progress after close = %v", err)
	}
	if _, err := h.Watch(keyspace.Full(), 0, &c); err != ErrClosed {
		t.Fatalf("Watch after close = %v", err)
	}
}

func TestHubStats(t *testing.T) {
	h := NewHub(HubConfig{Retention: 4})
	defer h.Close()
	for i := 1; i <= 10; i++ {
		h.Append(put("k", Version(i)))
	}
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 10})
	st := h.Stats()
	if st.Appends != 10 || st.ProgressEvents != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Evictions != 6 || st.RetainedEvents != 4 {
		t.Fatalf("eviction accounting wrong: %+v", st)
	}
	if st.MaxSeen != 10 {
		t.Fatalf("MaxSeen = %v", st.MaxSeen)
	}
}

func TestHubManyWatchersFanout(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	const nw = 16
	cols := make([]*collector, nw)
	ranges := numericSplit(1600, nw)
	for i := range cols {
		cols[i] = &collector{}
		cancel, err := h.Watch(ranges[i], NoVersion, cols[i])
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
	}
	const n = 1600
	for i := 0; i < n; i++ {
		h.Append(ChangeEvent{Key: keyspace.NumericKey(i), Mut: Mutation{Op: OpPut}, Version: Version(i + 1)})
	}
	waitUntil(t, "all ranges delivered", func() bool {
		total := 0
		for _, c := range cols {
			evs, _, _ := c.snapshot()
			total += len(evs)
		}
		return total == n
	})
	// Range watches mean each watcher received only its range (§4.4
	// efficiency: consumers receive only the events they need).
	for i, c := range cols {
		evs, _, _ := c.snapshot()
		for _, ev := range evs {
			if !ranges[i].Contains(ev.Key) {
				t.Fatalf("watcher %d got out-of-range key %q", i, string(ev.Key))
			}
		}
	}
}

// TestHubConcurrentStress hammers the hub with concurrent appenders,
// progress writers, and churning watchers; run with -race this verifies the
// synchronization, and the accounting must balance afterwards.
func TestHubConcurrentStress(t *testing.T) {
	h := NewHub(HubConfig{Retention: 1 << 14, WatcherBuffer: 1 << 14})
	defer h.Close()

	var produced atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Appenders: per-key version monotonicity maintained per goroutine key
	// space slice.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				v := Version(g*1000 + i)
				h.Append(ChangeEvent{
					Key:     keyspace.NumericKey(g*100 + i%10),
					Mut:     Mutation{Op: OpPut},
					Version: v,
				})
				produced.Add(1)
			}
		}(g)
	}
	// Progress writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 200; i++ {
			h.Progress(ProgressEvent{Range: keyspace.Full(), Version: Version(i)})
		}
	}()
	// Watcher churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var c collector
			cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
			if err != nil {
				return
			}
			cancel()
		}
	}()
	close(stop)
	wg.Wait()
	st := h.Stats()
	if st.Appends != produced.Load() {
		t.Fatalf("append accounting: %d vs %d", st.Appends, produced.Load())
	}
	if st.Watchers != 0 {
		t.Fatalf("leaked watchers: %d", st.Watchers)
	}
}

// Regression: Hub.Watch used to ignore enqueue overflow during the
// retained-window replay, so a watcher whose replay exceeded WatcherBuffer
// silently lost change events — the "third outcome" the contract forbids.
// With Retention > WatcherBuffer the replay must end in a resync instead.
func TestHubWatchReplayOverflowResyncs(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHub(HubConfig{Retention: 64, WatcherBuffer: 8, Metrics: reg})
	defer h.Close()

	for i := 1; i <= 50; i++ {
		h.Append(put(fmt.Sprintf("k%02d", i), Version(i)))
	}

	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	waitUntil(t, "replay-overflow resync", func() bool {
		_, _, rs := c.snapshot()
		return len(rs) == 1
	})
	evs, _, rs := c.snapshot()
	if rs[0].MinVersion != 50 {
		t.Fatalf("resync MinVersion = %v, want 50 (maxSeen)", rs[0].MinVersion)
	}
	// No gapped stream: events delivered before the resync must be a prefix
	// of the replay, never a truncated-then-resumed stream.
	for i, ev := range evs {
		if ev.Version != Version(i+1) {
			t.Fatalf("gapped replay: event %d has version %v", i, ev.Version)
		}
	}
	if got := reg.Snapshot().Counters["core_hub_replay_overflow_total"]; got != 1 {
		t.Fatalf("replay overflow counter = %d, want 1", got)
	}

	// A replay that fits the buffer (watching from version 45: 5 events)
	// still works and ends without a resync.
	var c2 collector
	cancel2, err := h.Watch(keyspace.Full(), 45, &c2)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	waitUntil(t, "short replay", func() bool {
		evs, _, _ := c2.snapshot()
		return len(evs) == 5
	})
	if _, _, rs2 := c2.snapshot(); len(rs2) != 0 {
		t.Fatalf("short replay resynced unexpectedly: %v", rs2)
	}
}

// TestHubProgressNeverOverflows is the inverse of the old progress-overflow
// lag-out: a claim holds no queue slot, so a consumer wedged in OnProgress
// behind far more distinct-range claims than its buffer holds is never
// lagged out and queues nothing, and once released it is told a frontier
// covering every claim at its version.
func TestHubProgressNeverOverflows(t *testing.T) {
	h := NewHub(HubConfig{WatcherBuffer: 4, Metrics: metrics.NewRegistry()})
	defer h.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var told VersionMap
	var resyncs int
	cb := Funcs{
		Progress: func(p ProgressEvent) {
			once.Do(func() { close(entered) })
			<-release
			mu.Lock()
			told.Raise(p.Range, p.Version)
			mu.Unlock()
		},
		Resync: func(ResyncEvent) { mu.Lock(); resyncs++; mu.Unlock() },
	}
	cancel, err := h.Watch(keyspace.Full(), NoVersion, cb)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	claim := func(i int) ProgressEvent {
		return ProgressEvent{Range: keyspace.NumericRange(i*4, i*4+3), Version: Version(i + 1)}
	}
	h.Progress(claim(0))
	<-entered // the consumer is wedged inside the first announcement
	const claims = 1000
	for i := 1; i < claims; i++ {
		h.Progress(claim(i))
	}
	ls := h.WatcherLags()
	if len(ls) != 1 || ls[0].Lagged || ls[0].QueueDepth != 0 {
		t.Fatalf("radar = %+v, want one open watcher with nothing queued", ls)
	}
	if st := h.Stats(); st.Resyncs != 0 {
		t.Fatalf("resyncs = %d with the consumer wedged on progress, want 0", st.Resyncs)
	}
	close(release)
	waitUntil(t, "every claim told", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < claims; i++ {
			if c := claim(i); told.MinOver(c.Range) < c.Version {
				return false
			}
		}
		return true
	})
	mu.Lock()
	defer mu.Unlock()
	if resyncs != 0 {
		t.Fatalf("wedged consumer resynced %d times", resyncs)
	}
}

// TestHubStressFullLifecycle extends the concurrent stress to the full
// lifecycle surface: appenders, progress writers, watcher churn, a failure
// injector calling Wipe, and finally Close racing late operations. There are
// no throughput assertions — under -race this test exists to prove the
// synchronization of every public entry point, including the resync paths
// the Wipe calls keep exercising.
func TestHubStressFullLifecycle(t *testing.T) {
	h := NewHub(HubConfig{Retention: 256, WatcherBuffer: 64})

	var wg sync.WaitGroup
	// Appenders: per-goroutine key slices keep per-key versions monotonic.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 400; i++ {
				h.Append(ChangeEvent{
					Key:     keyspace.NumericKey(g*100 + i%10),
					Mut:     Mutation{Op: OpPut},
					Version: Version(g*1000 + i),
				})
			}
		}(g)
	}
	// Progress writers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 200; i++ {
				h.Progress(ProgressEvent{Range: keyspace.Full(), Version: Version(g*500 + i)})
			}
		}(g)
	}
	// Watcher churn: each watch replays whatever is retained, then cancels.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var c collector
				cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
				if err != nil {
					return // closed under us — a valid interleaving
				}
				cancel()
			}
		}()
	}
	// Failure injector: wipes discard soft state and resync every watcher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			h.Wipe()
		}
	}()
	// Reader: stats and frontier snapshots race everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			h.Stats()
			h.Frontier()
		}
	}()
	wg.Wait()
	h.Close()
	if err := h.Append(ChangeEvent{Key: keyspace.NumericKey(1), Mut: Mutation{Op: OpPut}, Version: 1 << 30}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
	if err := h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 1 << 30}); !errors.Is(err, ErrClosed) {
		t.Fatalf("progress after close: got %v, want ErrClosed", err)
	}
	if _, err := h.Watch(keyspace.Full(), NoVersion, &collector{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("watch after close: got %v, want ErrClosed", err)
	}
}

// batchSink records whether events arrived via OnEventBatch or OnEvent,
// preserving arrival order alongside interleaved progress announcements.
type batchSink struct {
	mu       sync.Mutex
	events   []ChangeEvent
	batches  int
	singles  int
	progress []ProgressEvent
	eventsAt []int // event count at each progress callback
	resyncs  int
}

func (b *batchSink) OnEvent(ev ChangeEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.singles++
	b.events = append(b.events, ev)
}

func (b *batchSink) OnEventBatch(evs []ChangeEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batches++
	b.events = append(b.events, evs...)
}

func (b *batchSink) OnProgress(p ProgressEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.progress = append(b.progress, p)
	b.eventsAt = append(b.eventsAt, len(b.events))
}

func (b *batchSink) OnResync(ResyncEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.resyncs++
}

// TestWatcherBatchDispatch: a callback implementing EventBatchCallback
// receives contiguous event runs as whole batches — never via OnEvent —
// with order preserved and each progress announcement after every event it
// covers.
func TestWatcherBatchDispatch(t *testing.T) {
	h := NewHub(HubConfig{Metrics: metrics.NewRegistry()})
	defer h.Close()
	sink := &batchSink{}
	cancel, err := h.Watch(keyspace.Full(), NoVersion, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const rounds, batch = 16, 32
	evs := make([]ChangeEvent, 0, batch)
	for r := 0; r < rounds; r++ {
		evs = evs[:0]
		for i := 0; i < batch; i++ {
			evs = append(evs, ChangeEvent{
				Key:     keyspace.NumericKey(i),
				Mut:     Mutation{Op: OpPut, Value: []byte("b")},
				Version: Version(r*batch + i + 1),
			})
		}
		if err := h.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
		if err := h.Progress(ProgressEvent{Range: keyspace.Full(), Version: Version((r + 1) * batch)}); err != nil {
			t.Fatal(err)
		}
	}

	const total = rounds * batch
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sink.mu.Lock()
		n, ps := len(sink.events), len(sink.progress)
		done := n >= total && ps > 0 && sink.progress[ps-1].Version == total
		sink.mu.Unlock()
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != total {
		t.Fatalf("delivered %d events, want %d", len(sink.events), total)
	}
	if sink.singles != 0 {
		t.Fatalf("%d events leaked through OnEvent despite EventBatchCallback", sink.singles)
	}
	if sink.batches == 0 || sink.batches >= total {
		t.Fatalf("%d batches for %d events, want batched delivery", sink.batches, total)
	}
	if sink.resyncs != 0 {
		t.Fatalf("unexpected resyncs: %d", sink.resyncs)
	}
	// Per-key order: events for one key must be version-ascending. With
	// NumericKey(i) repeated each round, global order is ascending too.
	for i := 1; i < len(sink.events); i++ {
		if sink.events[i].Version <= sink.events[i-1].Version {
			t.Fatalf("event %d version %v <= previous %v",
				i, sink.events[i].Version, sink.events[i-1].Version)
		}
	}
	if len(sink.progress) == 0 {
		t.Fatal("no progress callbacks")
	}
	// Version v is the v-th event, so a claim through v needs v delivered.
	for i, p := range sink.progress {
		if sink.eventsAt[i] < int(p.Version) {
			t.Fatalf("progress through %v announced after only %d events", p.Version, sink.eventsAt[i])
		}
	}
}

// TestHubRefusedWatchIsRecorded: a Watch refused under Reject pressure
// leaves exactly one watch-refused record naming the range, and no
// watcher-add.
func TestHubRefusedWatchIsRecorded(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := flightrec.New(flightrec.Config{Metrics: reg})
	gov := govern.NewGovernor(govern.Config{Budget: 1 << 20, Metrics: reg})
	defer gov.Close()
	h := NewHub(HubConfig{Metrics: reg, Recorder: rec, Governor: gov})
	defer h.Close()
	gov.Account("test").Charge(1 << 20) // straight to Reject
	if _, err := h.Watch(keyspace.Prefix("a/"), NoVersion, &collector{}); !errors.Is(err, govern.ErrOverloaded) {
		t.Fatalf("Watch under Reject = %v, want ErrOverloaded", err)
	}
	var refused []flightrec.Record
	for _, r := range rec.Tail(0) {
		switch r.Kind {
		case flightrec.KindWatchRefused:
			refused = append(refused, r)
		case flightrec.KindWatcherAdd:
			t.Fatalf("refused watch recorded a watcher-add: %+v", r)
		}
	}
	if len(refused) != 1 || refused[0].Comp != "core.hub" || !strings.Contains(refused[0].Detail, keyspace.Prefix("a/").String()) {
		t.Fatalf("watch-refused records = %+v, want one from core.hub naming the range", refused)
	}
}

// watcherRing digs a registered watcher's delivery queue out of the hub, so
// tests can assert on its counts (e.g. "this fanout never touched that
// watcher").
func watcherRing(h *Hub, id int64) *ring {
	h.regMu.Lock()
	defer h.regMu.Unlock()
	w := h.watchers[id]
	if w == nil {
		return nil
	}
	return w.q
}

// TestHubDeliveredMetricsMatchStats is the regression test for the metrics
// drift bug: the retained-window replay used to bump the hub's internal
// delivered counter but not core_hub_delivered_total, so Stats() and the
// registry disagreed after any replaying watch.
func TestHubDeliveredMetricsMatchStats(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHub(HubConfig{Metrics: reg})
	defer h.Close()
	for i := 1; i <= 50; i++ {
		h.Append(put("k", Version(i)))
	}
	var c collector
	cancel, err := h.Watch(keyspace.Full(), 0, &c) // replays all 50
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	for i := 51; i <= 60; i++ { // then some live deliveries on top
		h.Append(put("k", Version(i)))
	}
	waitUntil(t, "all deliveries", func() bool {
		evs, _, _ := c.snapshot()
		return len(evs) == 60
	})
	internal := h.Stats().Delivered
	registry := reg.Snapshot().Counters["core_hub_delivered_total"]
	if internal != 60 {
		t.Fatalf("Stats().Delivered = %d, want 60", internal)
	}
	if registry != internal {
		t.Fatalf("core_hub_delivered_total = %d, Stats().Delivered = %d — counters drifted", registry, internal)
	}
}

// TestHubProgressShardIsolation: a progress claim over one watcher's key
// range — shard A of a keyspace an auto-sharder would split — must never
// touch a watcher of the disjoint shard B, not even with a wake: the range
// index wakes only the watchers a claim overlaps. The watcher's ring touch
// counter proves "never touched".
func TestHubProgressShardIsolation(t *testing.T) {
	h := NewHub(HubConfig{})
	defer h.Close()
	// Watcher A covers [0,1000), watcher B [1000,2000). IDs are assigned in
	// Watch order starting at 0.
	var a, b collector
	cancelA, err := h.Watch(keyspace.NumericRange(0, 1000), NoVersion, &a)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelA()
	cancelB, err := h.Watch(keyspace.NumericRange(1000, 2000), NoVersion, &b)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelB()

	for i := 0; i < 10; i++ {
		if err := h.Progress(ProgressEvent{Range: keyspace.NumericRange(0, 1000), Version: Version(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "A's progress", func() bool {
		_, ps, _ := a.snapshot()
		return len(ps) >= 1 && ps[len(ps)-1].Version == 10
	})
	if got := watcherRing(h, 1).touches(); got != 0 {
		t.Fatalf("watcher B was touched %d times by progress over A", got)
	}
	// Sanity: the claim reached A clipped to its range.
	_, ps, _ := a.snapshot()
	for _, p := range ps {
		if p.Range != keyspace.NumericRange(0, 1000) {
			t.Fatalf("progress range = %v, want [0,1000)", p.Range)
		}
	}
}

// TestHubProgressCoalescing: claims raised while the watcher is busy reach
// it as one announcement of the newest frontier — a burst of same-range
// ticks costs a wedged watcher nothing and can never lag it out.
func TestHubProgressCoalescing(t *testing.T) {
	h := NewHub(HubConfig{WatcherBuffer: 4})
	defer h.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var got []ProgressEvent
	var resyncs int
	cb := Funcs{
		Progress: func(p ProgressEvent) {
			mu.Lock()
			got = append(got, p)
			mu.Unlock()
			once.Do(func() { close(entered) })
			<-release
		},
		Resync: func(ResyncEvent) { mu.Lock(); resyncs++; mu.Unlock() },
	}
	cancel, err := h.Watch(keyspace.Full(), NoVersion, cb)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 1})
	<-entered // consumer wedged inside the first claim's callback
	// Far more same-range claims than the watcher buffer holds.
	for i := 2; i <= 40; i++ {
		h.Progress(ProgressEvent{Range: keyspace.Full(), Version: Version(i)})
	}
	close(release)
	waitUntil(t, "final coalesced claim", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 2 && got[len(got)-1].Version == 40
	})
	mu.Lock()
	defer mu.Unlock()
	if resyncs != 0 {
		t.Fatalf("same-range progress burst lagged the watcher out (%d resyncs)", resyncs)
	}
	// The 39 queued claims collapsed into very few deliveries (the wedged one
	// plus whatever raced in during drains), each newer than the last.
	if len(got) > 5 {
		t.Fatalf("got %d progress deliveries for 40 same-range claims — not coalescing", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Version <= got[i-1].Version {
			t.Fatalf("coalesced claims out of order: %v", got)
		}
	}
}

// TestQuickHubAppendBatchPerKeyOrder is the batch ordering property test:
// randomized batches with interleaved keys, fed through AppendBatch, must
// reach every overlapping watcher — the reader and ring watchers with
// overlapping ranges — complete and in per-key version order.
func TestQuickHubAppendBatchPerKeyOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHub(HubConfig{Retention: 1 << 14, WatcherBuffer: 1 << 14})
		defer h.Close()

		type watchState struct {
			rng  keyspace.Range
			mu   sync.Mutex
			evs  []ChangeEvent
			want int
		}
		// A full-range reader plus overlapping ring watchers.
		ranges := []keyspace.Range{
			keyspace.Full(),
			keyspace.NumericRange(0, 2000),
			keyspace.NumericRange(500, 3500),
			{Low: keyspace.NumericKey(2500), High: keyspace.Inf},
		}
		var watchers []*watchState
		for _, r := range ranges {
			ws := &watchState{rng: r}
			watchers = append(watchers, ws)
			cancel, err := h.Watch(r, NoVersion, Funcs{Event: func(ev ChangeEvent) {
				ws.mu.Lock()
				ws.evs = append(ws.evs, ev)
				ws.mu.Unlock()
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
		}

		// Randomized batches: random sizes, random keys, versions globally increasing (as a commit-ordered CDC feed would
		// produce).
		version := Version(0)
		total := 400 + rng.Intn(400)
		var batch []ChangeEvent
		for sent := 0; sent < total; {
			batch = batch[:0]
			n := 1 + rng.Intn(24)
			for i := 0; i < n && sent < total; i++ {
				version++
				k := keyspace.NumericKey(rng.Intn(4000))
				ev := ChangeEvent{Key: k, Mut: Mutation{Op: OpPut, Value: []byte("v")}, Version: version}
				batch = append(batch, ev)
				for _, ws := range watchers {
					if ws.rng.Contains(k) {
						ws.want++
					}
				}
				sent++
			}
			if err := h.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}

		deadline := time.Now().Add(5 * time.Second)
		for _, ws := range watchers {
			for {
				ws.mu.Lock()
				done := len(ws.evs) >= ws.want
				ws.mu.Unlock()
				if done || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			ws.mu.Lock()
			evs, want := append([]ChangeEvent(nil), ws.evs...), ws.want
			ws.mu.Unlock()
			if len(evs) != want {
				t.Logf("watcher %v: delivered %d events, want %d", ws.rng, len(evs), want)
				return false
			}
			last := map[keyspace.Key]Version{}
			for _, ev := range evs {
				if !ws.rng.Contains(ev.Key) {
					t.Logf("watcher %v: out-of-range key %q", ws.rng, ev.Key)
					return false
				}
				if ev.Version <= last[ev.Key] {
					t.Logf("watcher %v: key %q version %v after %v", ws.rng, ev.Key, ev.Version, last[ev.Key])
					return false
				}
				last[ev.Key] = ev.Version
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestHubWedgedWatcherNeverBlocksAppends: a ring watcher wedged inside its
// first callback holds up no append. Every append returns while it stays
// wedged; the one whose event no longer fits the watcher's buffer lags it
// out, at that append's version, and once released the watcher gets exactly
// one resync and no event past the wedged one.
func TestHubWedgedWatcherNeverBlocksAppends(t *testing.T) {
	const buffer, n = 16, 2000
	reg := metrics.NewRegistry()
	h := NewHub(HubConfig{Retention: 64, WatcherBuffer: buffer, Metrics: reg})
	defer h.Close()
	wedged, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var events int
	var resyncs []ResyncEvent
	cancel, err := h.Watch(keyspace.NumericRange(0, 1000), NoVersion, Funcs{
		Event: func(ChangeEvent) {
			once.Do(func() { close(wedged); <-release })
			mu.Lock()
			events++
			mu.Unlock()
		},
		Resync: func(r ResyncEvent) {
			mu.Lock()
			resyncs = append(resyncs, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	key := keyspace.NumericKey(500)
	h.Append(ChangeEvent{Key: key, Mut: Mutation{Op: OpPut}, Version: 1})
	<-wedged

	done := make(chan error, 1)
	go func() {
		for i := 2; i <= n; i++ {
			if err := h.Append(ChangeEvent{Key: key, Mut: Mutation{Op: OpPut}, Version: Version(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatalf("appends blocked behind a wedged watcher")
	}
	st := h.Stats()
	if st.Appends != n || st.Resyncs != 1 {
		t.Fatalf("while wedged: %d appends, %d resyncs, want %d and 1", st.Appends, st.Resyncs, n)
	}
	if got := reg.Snapshot().Counters["core_hub_append_overflow_total"]; got != 1 {
		t.Fatalf("append overflows = %d, want 1", got)
	}
	close(release)
	waitUntil(t, "the resync", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(resyncs) == 1
	})
	h.Append(ChangeEvent{Key: key, Mut: Mutation{Op: OpPut}, Version: n + 1})
	mu.Lock()
	defer mu.Unlock()
	// The ring held versions 2..buffer+1 when version buffer+2 overflowed it.
	if want := Version(buffer + 2); resyncs[0].MinVersion != want {
		t.Fatalf("resync MinVersion = %v, want %v", resyncs[0].MinVersion, want)
	}
	if events != 1 {
		t.Fatalf("lagged watcher got %d events, want only the wedged one", events)
	}
}
