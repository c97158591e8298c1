// Package coretest provides a reusable conformance suite for implementations
// of the core.Watchable contract. Every storage×notification wiring in the
// repository (the four Figure 3 quadrants) must pass it; this is what makes
// "the watch contract is store-agnostic" a tested property rather than a
// slogan.
package coretest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// Env is one system under test: a Watchable over some store, plus a way to
// commit a keyed change and to read the source's current version.
type Env struct {
	// Watch is the implementation under test.
	Watch core.Watchable
	// Put commits a change for key k with payload v and returns the version
	// it committed at. For append-only stores the "key" identifies a series.
	Put func(k keyspace.Key, v []byte) core.Version
	// KeyOf maps a delivered event back to the logical key given to Put
	// (identity for KV stores; series extraction for ingestion stores).
	KeyOf func(ev core.ChangeEvent) keyspace.Key
	// Restart builds a second watch system over the same store, attached
	// now — a watch system restarted beneath its consumers — and returns it.
	// Close releases it too.
	Restart func() core.Watchable
	// Close releases the system.
	Close func()
}

// Factory builds a fresh Env. hubCfg suggests soft-state sizing; small
// Retention values must translate into eviction behaviour (resyncs).
type Factory func(hubCfg core.HubConfig) Env

// Run exercises the Watchable contract against the factory. Every row runs
// twice: as subtest shards=1 at GOMAXPROCS 1, the benchmark's setting, where
// a dispatcher runs only when ingest yields, and as shards=4 at GOMAXPROCS 4,
// where dispatchers race ingest in parallel. The subtest names date from
// when a hub split its keyspace into one shard per GOMAXPROCS; they are
// kept so results compare across revisions.
func Run(t *testing.T, name string, factory Factory) {
	t.Helper()
	rows := []struct {
		name string
		run  func(*testing.T, Factory)
	}{
		{"DeliversInPerKeyOrder", runOrder},
		{"RangeFiltering", runRangeFilter},
		{"ProgressReachesSourceVersion", runProgress},
		{"ProgressNeverAheadOfEvents", runProgressOrder},
		{"ResyncOnEvictedHistory", runResync},
		{"CancelStopsDelivery", runCancel},
		{"WatchValidation", runValidation},
		{"TracedStagesComplete", runTracing},
		{"LateAttachResumeResyncs", runLateAttach},
	}
	for _, row := range rows {
		t.Run(name+"/"+row.name, func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					row.run(t, factory)
				})
			}
		})
	}
}

func bigHub() core.HubConfig {
	return core.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 18}
}

func wait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("conformance: timed out waiting for %s", what)
}

func runOrder(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	var mu sync.Mutex
	seen := map[keyspace.Key][]core.Version{}
	total := 0
	cancel, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(ev core.ChangeEvent) {
			mu.Lock()
			k := env.KeyOf(ev)
			seen[k] = append(seen[k], ev.Version)
			total++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const n = 300
	for i := 0; i < n; i++ {
		env.Put(keyspace.Key(fmt.Sprintf("k%d", i%7)), []byte{byte(i)})
	}
	wait(t, "all events", func() bool { mu.Lock(); defer mu.Unlock(); return total == n })
	mu.Lock()
	defer mu.Unlock()
	for k, versions := range seen {
		for i := 1; i < len(versions); i++ {
			if versions[i] <= versions[i-1] {
				t.Fatalf("per-key order violated for %q: %v", string(k), versions)
			}
		}
	}
}

func runRangeFilter(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	var mu sync.Mutex
	var got []keyspace.Key
	r := keyspace.Prefix("in/")
	cancel, err := env.Watch.Watch(r, core.NoVersion, core.Funcs{
		Event: func(ev core.ChangeEvent) {
			mu.Lock()
			got = append(got, env.KeyOf(ev))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	env.Put("in/a", []byte("1"))
	env.Put("out/a", []byte("2"))
	env.Put("in/b", []byte("3"))
	wait(t, "in-range events", func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 2 })
	mu.Lock()
	defer mu.Unlock()
	for _, k := range got {
		if !r.Contains(k+"#") && !r.Contains(k) {
			t.Fatalf("out-of-range key delivered: %q", string(k))
		}
	}
}

func runProgress(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	var mu sync.Mutex
	var frontier core.Version
	cancel, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Progress: func(p core.ProgressEvent) {
			mu.Lock()
			if p.Version > frontier {
				frontier = p.Version
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var last core.Version
	for i := 0; i < 50; i++ {
		last = env.Put("k", []byte{byte(i)})
	}
	wait(t, "frontier reaches source", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return frontier >= last
	})
	// Progress never overtakes what was committed.
	mu.Lock()
	defer mu.Unlock()
	if frontier > last {
		t.Fatalf("frontier %v beyond source version %v", frontier, last)
	}
}

// runProgressOrder asserts "progress never lies" against a consumer slower
// than ingest: when OnProgress(v) arrives, every event of its range with
// version <= v has already been delivered. The first event wedges the
// delivery goroutine while the rest are committed, so events and progress
// marks pile up behind it — the state in which a watch system that coalesces
// queued marks can raise one past an event still in the queue.
func runProgressOrder(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	type delivery struct {
		ev   core.ChangeEvent
		prog *core.ProgressEvent // non-nil: a progress delivery
	}
	var mu sync.Mutex
	var log []delivery
	events := 0
	entered, release := make(chan struct{}), make(chan struct{})
	var enter, open sync.Once
	defer open.Do(func() { close(release) })
	cancel, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(ev core.ChangeEvent) {
			enter.Do(func() { close(entered); <-release })
			mu.Lock()
			log = append(log, delivery{ev: ev})
			events++
			mu.Unlock()
		},
		Progress: func(p core.ProgressEvent) {
			mu.Lock()
			log = append(log, delivery{prog: &p})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const n = 64
	put := func(i int) { env.Put(keyspace.Key(fmt.Sprintf("k%d", i%7)), []byte{byte(i)}) }
	put(0)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("conformance: timed out waiting for the first event")
	}
	for i := 1; i < n; i++ {
		put(i)
	}
	open.Do(func() { close(release) })
	wait(t, "all events", func() bool { mu.Lock(); defer mu.Unlock(); return events == n })

	// Every event is in the log now, so it is the universe to check against.
	mu.Lock()
	defer mu.Unlock()
	for i, d := range log {
		if d.prog == nil {
			continue
		}
		for _, later := range log[i+1:] {
			if later.prog == nil && later.ev.Version <= d.prog.Version && d.prog.Range.Contains(later.ev.Key) {
				t.Fatalf("progress %v over %v delivered before event %q at %v",
					d.prog.Version, d.prog.Range, string(later.ev.Key), later.ev.Version)
			}
		}
	}
}

func runResync(t *testing.T, factory Factory) {
	env := factory(core.HubConfig{Retention: 8, WatcherBuffer: 64})
	defer env.Close()
	var last core.Version
	for i := 0; i < 100; i++ {
		last = env.Put(keyspace.Key(fmt.Sprintf("k%d", i%5)), []byte{byte(i)})
	}
	// Watching from long-evicted history must resync, never silently gap.
	var mu sync.Mutex
	var resyncs []core.ResyncEvent
	events := 0
	cancel, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event:  func(core.ChangeEvent) { mu.Lock(); events++; mu.Unlock() },
		Resync: func(r core.ResyncEvent) { mu.Lock(); resyncs = append(resyncs, r); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	wait(t, "resync", func() bool { mu.Lock(); defer mu.Unlock(); return len(resyncs) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if events != 0 {
		t.Fatalf("gapped stream delivered %d events before resync", events)
	}
	if resyncs[0].MinVersion == core.NoVersion || resyncs[0].MinVersion > last {
		t.Fatalf("resync MinVersion %v out of bounds (source at %v)", resyncs[0].MinVersion, last)
	}
}

func runCancel(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	var mu sync.Mutex
	events := 0
	cancel, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(core.ChangeEvent) { mu.Lock(); events++; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Put("k", []byte("1"))
	wait(t, "first event", func() bool { mu.Lock(); defer mu.Unlock(); return events == 1 })
	cancel()
	cancel() // idempotent
	env.Put("k", []byte("2"))
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if events != 1 {
		t.Fatalf("delivery after cancel: %d events", events)
	}
}

// runTracing asserts the tracing contract: with sampling at 1-in-1, every
// event the source commits yields a completed trace whose four stages
// (commit, append, enqueue, deliver) are all stamped in non-decreasing
// order. This is what makes "the pipeline is traceable end to end" a tested
// property of every Ingester wiring, not just of the hub.
func runTracing(t *testing.T, factory Factory) {
	tracer := trace.New(trace.Config{
		SampleEvery: 1,
		Capacity:    1 << 10,
		MaxInflight: 1 << 10,
		Metrics:     metrics.NewRegistry(),
	})
	cfg := bigHub()
	cfg.Tracer = tracer
	env := factory(cfg)
	defer env.Close()

	delivered := 0
	var mu sync.Mutex
	cancel, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(ev core.ChangeEvent) {
			mu.Lock()
			delivered++
			mu.Unlock()
			if ev.Trace == 0 {
				t.Errorf("1-in-1 sampling delivered an untraced event: %v", ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const n = 64
	for i := 0; i < n; i++ {
		env.Put(keyspace.Key(fmt.Sprintf("k%d", i%5)), []byte{byte(i)})
	}
	wait(t, "all traces complete", func() bool { return tracer.CompletedCount() >= n })

	done := tracer.Completed()
	if len(done) < n {
		t.Fatalf("completed ring holds %d traces, want >= %d", len(done), n)
	}
	for _, tr := range done {
		if !tr.Complete() {
			t.Fatalf("incomplete trace in completed ring: %+v", tr)
		}
		// Stamps must be monotone across the stages that were reached;
		// stages past the trace's final stage (the remote hops, for an
		// in-process pipeline) legitimately stay zero.
		prev := 0
		for s := 1; s < trace.NumStages; s++ {
			if tr.Stages[s] == 0 {
				continue
			}
			if tr.Stages[s] < tr.Stages[prev] {
				t.Fatalf("stage %v stamped before stage %v: %+v",
					trace.Stage(s), trace.Stage(prev), tr)
			}
			prev = s
		}
	}
	if tracer.InflightCount() != 0 {
		t.Fatalf("%d traces stuck in flight after full delivery", tracer.InflightCount())
	}
}

func runValidation(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	if _, err := env.Watch.Watch(keyspace.Full(), core.NoVersion, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	if _, err := env.Watch.Watch(keyspace.Range{}, core.NoVersion, core.Funcs{}); err == nil {
		t.Fatal("empty range accepted")
	}
}

// runLateAttach asserts that a watch system attached to a store with history
// knows it lacks that history: a resume from before the attach resyncs,
// before any event, instead of streaming what follows the attach and
// announcing a frontier over versions it never saw.
func runLateAttach(t *testing.T, factory Factory) {
	env := factory(bigHub())
	defer env.Close()
	var from core.Version
	for i := 1; i <= 10; i++ {
		v := env.Put(keyspace.Key(fmt.Sprintf("k%d", i)), []byte{byte(i)})
		if i == 5 {
			from = v
		}
	}
	w := env.Restart()
	var mu sync.Mutex
	var log []string
	note := func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }
	cancel, err := w.Watch(keyspace.Full(), from, core.Funcs{
		Event:    func(ev core.ChangeEvent) { note(fmt.Sprintf("event %q@%v", string(ev.Key), ev.Version)) },
		Progress: func(p core.ProgressEvent) { note(fmt.Sprintf("progress %v", p.Version)) },
		Resync:   func(core.ResyncEvent) { note("resync") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	env.Put("k11", []byte{11})
	wait(t, "a callback", func() bool { mu.Lock(); defer mu.Unlock(); return len(log) > 0 })
	mu.Lock()
	defer mu.Unlock()
	if log[0] != "resync" {
		t.Fatalf("resume from %v on a watch system attached after it: got %v, want a resync first", from, log)
	}
}
