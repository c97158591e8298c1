package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/coretest"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/remote"
)

// soakHeapCeiling is the absolute HeapAlloc bound the soak enforces while
// the storm runs. It is deliberately generous — the race detector's shadow
// memory and the Go runtime dwarf the governed budget — but it is the line
// between "the governor held" and "the process would have OOMed": without
// the governor the stalled consumers' backlogs alone grow unboundedly.
const soakHeapCeiling = 512 << 20

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSoakOverloadStorm is the overload soak (`make soak`, short mode in
// `make verify`): the full governed stack — MVCC store, hub, remote server,
// TCP, reconnecting clients, ResyncWatchers — versus a large-value watcher
// storm in which a subset of consumers stops reading entirely and every
// connection is severed mid-storm, forcing a simultaneous resume storm.
//
// It must end with: the heap within its absolute ceiling throughout, the
// degradation ladder demonstrably engaged (relief runs, pressure past
// shedding), every consumer — stalled, shed, severed, refused — converged
// byte-equal with the store, the governor back under budget, and not one
// goroutine leaked. Run it under -race.
func TestSoakOverloadStorm(t *testing.T) {
	checkLeaks := coretest.GoroutineLeakGuard(t, 3)

	// Retention is kept small relative to the stalled backlog: the first
	// relief rung (accelerated eviction) can only free (retention - floor)
	// bytes per cycle, so a sustained stall must escalate to the second
	// rung — outbox overflow, shedding or refusal — rather than letting
	// eviction absorb the whole storm.
	watchers, slow, events, valSize := 64, 8, 12000, 8192
	budget := int64(4 << 20)
	retention, floor := 128, 64
	convergeIn := 120 * time.Second
	if testing.Short() {
		watchers, slow, events, valSize = 12, 3, 4000, 8192
		budget = 1 << 20
		retention, floor = 64, 32
		convergeIn = 60 * time.Second
	}

	reg := metrics.NewRegistry()
	gov := govern.NewGovernor(govern.Config{
		Budget:         budget,
		QuarantineBase: 50 * time.Millisecond,
		QuarantineMax:  500 * time.Millisecond,
		Metrics:        reg,
		Seed:           1,
	})
	ws := mvcc.NewWatchableStore(core.HubConfig{
		Retention:      retention,
		RetentionFloor: floor,
		WatcherBuffer:  1 << 14,
		Metrics:        reg,
		Governor:       gov,
	})
	srv, err := remote.ServeWith("127.0.0.1:0", ws, ws, remote.ServerConfig{
		Metrics:  reg,
		Governor: gov,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := remote.NewChaosController(remote.ChaosConfig{Seed: 1})

	gate := make(chan struct{})
	sinks := make([]*e17Sink, watchers)
	rws := make([]*core.ResyncWatcher, watchers)
	ranges := make([]keyspace.Range, watchers)
	clients := make([]*remote.Client, watchers)
	for i := 0; i < watchers; i++ {
		client, err := remote.DialWith(srv.Addr(), remote.ClientConfig{
			Metrics: reg,
			Reconnect: remote.ReconnectPolicy{
				Enabled:     true,
				MaxAttempts: -1,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
				Seed:        int64(i) + 1,
			},
			Dialer: ctrl.Dialer(),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client
		ranges[i] = keyspace.Prefix(keyspace.Key(fmt.Sprintf("w%02d/", i)))
		sinks[i] = &e17Sink{state: make(map[keyspace.Key]string)}
		if i < slow {
			sinks[i].gate = gate
		}
		rws[i] = core.NewResyncWatcher(client, client, ranges[i], sinks[i])
		if err := rws[i].Start(); err != nil {
			t.Fatal(err)
		}
	}

	// Sampler: the heap high-water mark the soak exists to bound. (Peak
	// pressure needs none: the governor records its own.)
	var maxHeap uint64
	stopSample := make(chan struct{})
	var sampleDone sync.WaitGroup
	sampleDone.Add(1)
	go func() {
		defer sampleDone.Done()
		var ms runtime.MemStats
		for {
			select {
			case <-stopSample:
				return
			case <-time.After(10 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > maxHeap {
					maxHeap = ms.HeapAlloc
				}
			}
		}
	}()

	// The storm: large values round-robin across every watcher's prefix,
	// paced so relief and delivery goroutines get scheduled on small
	// runners. Every connection is severed late in the storm — after the
	// stalled consumers' backlogs have pushed the governor up its ladder —
	// so the tail of the storm doubles as a full-fleet resume storm against
	// a governor already under pressure.
	// Half the storm lands on the stalled consumers' prefixes: their
	// backlog must decisively exceed what the kernel's socket buffers can
	// absorb (TCP send buffers auto-tune into the megabytes on loopback),
	// or every charged byte drains into the kernel and the governor never
	// feels the stall.
	val := make([]byte, valSize)
	for i := 1; i <= events; i++ {
		w := slow + (i/2)%(watchers-slow)
		if i%2 == 0 {
			w = (i / 2) % slow
		}
		ws.Put(keyspace.Key(fmt.Sprintf("w%02d/%04d", w, i%64)), val)
		if i == events/8*7 {
			ctrl.SeverAll()
		}
		if i%32 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	close(gate) // storm over: stalled consumers resume draining

	converged := func() bool {
		for i, s := range sinks {
			entries, _, err := ws.SnapshotRange(ranges[i])
			if err != nil {
				return false
			}
			s.mu.Lock()
			ok := len(s.state) == len(entries)
			if ok {
				for _, e := range entries {
					if s.state[e.Key] != string(e.Value) {
						ok = false
						break
					}
				}
			}
			s.mu.Unlock()
			if !ok {
				return false
			}
		}
		return true
	}
	waitFor(t, "byte-equal convergence of every consumer", convergeIn, converged)
	// Every severed client must eventually redial — the resume storm. (A
	// stalled client can converge from frames its kernel buffered before
	// the sever and only hit the dead socket afterwards, so this completes
	// after convergence, not before.)
	waitFor(t, "severed fleet redialing", 15*time.Second, func() bool {
		return reg.Snapshot().Counters["remote_client_reconnects_total"] >= int64(watchers)
	})

	close(stopSample)
	sampleDone.Wait()
	st := gov.Snapshot()
	snap := reg.Snapshot()
	var totalResyncs int64
	for _, w := range rws {
		totalResyncs += w.Resyncs()
	}
	t.Logf("peak pressure %s, relief runs %d, sheds %d, rejects %d, overloaded frames %d, overflow resyncs %d, client resync cycles %d, reconnects %d, max heap %d MiB",
		govern.Pressure(st.PeakLevel), st.ReliefRuns, st.Sheds, st.Rejects,
		snap.Counters["remote_server_overloaded_total"],
		snap.Counters["remote_server_overflow_resyncs_total"],
		totalResyncs,
		snap.Counters["remote_client_reconnects_total"],
		maxHeap>>20)

	if maxHeap > soakHeapCeiling {
		t.Errorf("heap high-water %d exceeded the %d ceiling: the governor did not hold", maxHeap, int64(soakHeapCeiling))
	}
	if st.ReliefRuns < 1 {
		t.Errorf("relief never ran: the storm did not stress the governor")
	}
	// The ladder must have gone past its first rung: some combination of
	// hub sheds, refused admissions, pressure-triggered outbox overflows,
	// or overload frames on the wire.
	rung2 := st.Sheds + st.Rejects +
		snap.Counters["remote_server_overflow_resyncs_total"] +
		snap.Counters["remote_server_overloaded_total"]
	if rung2 == 0 {
		t.Errorf("the ladder never went past eviction: no sheds, rejects, overflows or overload frames")
	}
	if st.Sheds > 0 && totalResyncs == 0 {
		t.Errorf("%d watchers shed but no consumer saw a resync cycle: a shed was silent", st.Sheds)
	}
	if st.UsedBytes > st.BudgetBytes {
		t.Errorf("governor still over budget after the storm: used %d of %d", st.UsedBytes, st.BudgetBytes)
	}
	if st.Level >= int(govern.Shed) {
		t.Errorf("governor still at pressure %s after the storm subsided", st.Pressure)
	}

	for _, w := range rws {
		w.Stop()
	}
	for _, c := range clients {
		c.Close()
	}
	srv.Close()
	ws.Close()
	gov.Close()
	checkLeaks()
}
