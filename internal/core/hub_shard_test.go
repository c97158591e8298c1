package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

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

// TestHubProgressShardIsolation: a progress claim over shard A's range must
// never touch a watcher registered only in shard B — not even with a wake.
// The watcher's ring touch counter proves "never touched".
func TestHubProgressShardIsolation(t *testing.T) {
	h := NewHub(HubConfig{Shards: 4})
	defer h.Close()
	// Shard boundaries sit at NumericKey(1000·i). Watcher A lives entirely in
	// shard 0, watcher B entirely in shard 1. IDs are assigned in Watch order
	// starting at 0.
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
	waitUntil(t, "shard-A progress", func() bool {
		_, ps, _ := a.snapshot()
		return len(ps) >= 1 && ps[len(ps)-1].Version == 10
	})
	if got := watcherRing(h, 1).touches(); got != 0 {
		t.Fatalf("shard-B watcher was touched %d times by shard-A progress", got)
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
	h := NewHub(HubConfig{WatcherBuffer: 4, Shards: 1})
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

// TestShardedHubRoutesAndMerges: single Appends over distinct keys spread
// across four shards reach a full-range watch exactly once each, and the
// shards' stats add up to every append.
func TestShardedHubRoutesAndMerges(t *testing.T) {
	h := NewHub(HubConfig{Shards: 4})
	defer h.Close()
	if h.NumShards() != 4 {
		t.Fatalf("shards = %d", h.NumShards())
	}
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const n = 400
	for i := 0; i < n; i++ {
		if err := h.Append(ChangeEvent{Key: keyspace.NumericKey(i * 10), Mut: Mutation{Op: OpPut}, Version: Version(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "all events", func() bool { evs, _, _ := c.snapshot(); return len(evs) == n })
	evs, _, _ := c.snapshot()
	seen := map[keyspace.Key]bool{}
	for _, ev := range evs {
		if seen[ev.Key] {
			t.Fatalf("duplicate delivery for %q", string(ev.Key))
		}
		seen[ev.Key] = true
	}
	if st := h.Stats(); st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
}

// TestShardedHubPerKeyOrderAcrossShards: single Appends cycling over eight
// keys, two per shard, reach a full-range watch in per-key version order.
func TestShardedHubPerKeyOrderAcrossShards(t *testing.T) {
	h := NewHub(HubConfig{Shards: 4})
	defer h.Close()
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const n = 400
	for i := 1; i <= n; i++ {
		k := keyspace.NumericKey((i % 8) * 500) // 8 keys, two per shard
		if err := h.Append(ChangeEvent{Key: k, Mut: Mutation{Op: OpPut}, Version: Version(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "all events", func() bool { evs, _, _ := c.snapshot(); return len(evs) == n })
	evs, _, _ := c.snapshot()
	last := map[keyspace.Key]Version{}
	for _, ev := range evs {
		if ev.Version <= last[ev.Key] {
			t.Fatalf("per-key order violated: %v after %v", ev, last[ev.Key])
		}
		last[ev.Key] = ev.Version
	}
}

// TestQuickHubAppendBatchPerKeyOrder is the cross-shard ordering property
// test: randomized batches with interleaved keys, fed through AppendBatch
// into a multi-shard hub, must reach every overlapping watcher complete and
// in per-key version order.
func TestQuickHubAppendBatchPerKeyOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHub(HubConfig{Shards: 4, Retention: 1 << 14, WatcherBuffer: 1 << 14})
		defer h.Close()

		type watchState struct {
			rng  keyspace.Range
			mu   sync.Mutex
			evs  []ChangeEvent
			want int
		}
		// A full-range watcher plus watchers straddling shard boundaries.
		ranges := []keyspace.Range{
			keyspace.Full(),
			keyspace.NumericRange(0, 2000),                       // shards 0-1
			keyspace.NumericRange(500, 3500),                     // clips all four shards
			{Low: keyspace.NumericKey(2500), High: keyspace.Inf}, // shards 2-3
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

		// Randomized batches: random sizes, random keys across all shards,
		// versions globally increasing (as a commit-ordered CDC feed would
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

// TestHubSlowWatcherLatencyIsolation is the stress test for shard isolation:
// a deliberately wedged watcher on shard A, with an appender hammering its
// shard, must not collapse append throughput on shard B. The bound is
// deliberately generous — on a loaded 1-CPU -race run everything slows
// together — but it fails decisively if shard B's appends ever serialize
// behind shard A's congestion or the wedged consumer.
func TestHubSlowWatcherLatencyIsolation(t *testing.T) {
	h := NewHub(HubConfig{Shards: 2, Retention: 1 << 12, WatcherBuffer: 1 << 20})
	defer h.Close()

	const n = 20000
	keyB := keyspace.NumericKey(1500) // shard B (boundary at 1000)
	measureB := func(base Version) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			h.Append(ChangeEvent{Key: keyB, Mut: Mutation{Op: OpPut}, Version: base + Version(i+1)})
		}
		return time.Since(start)
	}

	baseline := measureB(0)

	// Wedge a watcher on shard A inside its first callback and keep shard A
	// under live append pressure for the whole measured window.
	wedged := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cancel, err := h.Watch(keyspace.NumericRange(0, 1000), n, Funcs{
		Event: func(ChangeEvent) {
			once.Do(func() { close(wedged) })
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	h.Append(ChangeEvent{Key: keyspace.NumericKey(500), Mut: Mutation{Op: OpPut}, Version: n + 1})
	<-wedged

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := Version(n + 2)
		for {
			select {
			case <-stop:
				return
			default:
				h.Append(ChangeEvent{Key: keyspace.NumericKey(500), Mut: Mutation{Op: OpPut}, Version: v})
				v++
			}
		}
	}()

	contended := measureB(n + 1)
	close(stop)
	close(release)
	wg.Wait()

	// The background appender legitimately costs CPU; serializing behind the
	// wedged consumer or a global lock would cost orders of magnitude more.
	const maxRatio = 25.0
	if ratio := float64(contended) / float64(baseline); ratio > maxRatio {
		t.Fatalf("shard-B append throughput degraded %.1f× (baseline %v, contended %v) — shards are not isolated",
			ratio, baseline, contended)
	}
}
