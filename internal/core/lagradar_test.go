package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// blockGate is a callback that can be paused, forcing a watcher to fall
// behind the frontier while the test measures its lag.
type blockGate struct {
	collector
	mu      sync.Mutex
	blocked bool
	parked  bool // a callback is waiting at the gate
	wake    chan struct{}
}

func newBlockGate() *blockGate { return &blockGate{wake: make(chan struct{})} }

func (g *blockGate) block() {
	g.mu.Lock()
	g.blocked = true
	g.mu.Unlock()
}

func (g *blockGate) unblock() {
	g.mu.Lock()
	if g.blocked {
		g.blocked = false
		close(g.wake)
		g.wake = make(chan struct{})
	}
	g.mu.Unlock()
}

func (g *blockGate) OnEvent(ev ChangeEvent) {
	for {
		g.mu.Lock()
		blocked, wake := g.blocked, g.wake
		g.mu.Unlock()
		if !blocked {
			break
		}
		g.mu.Lock()
		g.parked = true
		g.mu.Unlock()
		<-wake
	}
	g.collector.OnEvent(ev)
}

func (g *blockGate) isParked() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.parked
}

func TestVerClock(t *testing.T) {
	var vc verClock
	vc.note(0, 100) // version 0 is ignored
	vc.note(5, 50)
	vc.note(5, 60) // non-advancing, ignored
	vc.note(3, 70) // regressing, ignored
	vc.note(9, 90)

	if at, ok := vc.firstAfter(0); !ok || at != 50 {
		t.Fatalf("firstAfter(0) = %d,%v, want 50", at, ok)
	}
	if at, ok := vc.firstAfter(5); !ok || at != 90 {
		t.Fatalf("firstAfter(5) = %d,%v, want 90", at, ok)
	}
	if _, ok := vc.firstAfter(9); ok {
		t.Fatal("firstAfter(9) found a checkpoint past the frontier")
	}
}

func TestVerClockRingEviction(t *testing.T) {
	var vc verClock
	for i := 1; i <= verClockCap+10; i++ {
		vc.note(uint64(i), int64(i*100))
	}
	// The oldest 10 checkpoints fell off; firstAfter(0) now answers with the
	// earliest retained stamp.
	if at, ok := vc.firstAfter(0); !ok || at != int64(11*100) {
		t.Fatalf("firstAfter(0) after eviction = %d,%v, want %d", at, ok, 11*100)
	}
	if at, ok := vc.firstAfter(uint64(verClockCap)); !ok || at != int64((verClockCap+1)*100) {
		t.Fatalf("firstAfter(cap) = %d,%v", at, ok)
	}
}

func TestWatcherLagsCaughtUp(t *testing.T) {
	fc := clockwork.NewFake()
	h := NewHub(HubConfig{Clock: fc, Metrics: metrics.NewRegistry()})
	defer h.Close()
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for i := 1; i <= 8; i++ {
		h.Append(put(fmt.Sprintf("k%d", i), Version(i)))
	}
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 8})
	waitUntil(t, "8 events", func() bool { evs, _, _ := c.snapshot(); return len(evs) == 8 })
	waitUntil(t, "caught-up radar", func() bool {
		ls := h.WatcherLags()
		return len(ls) == 1 && ls[0].VersionLag == 0
	})

	ls := h.WatcherLags()
	wl := ls[0]
	if wl.LastSeen != 8 || wl.Frontier != 8 {
		t.Fatalf("caught-up watcher: %+v", wl)
	}
	if wl.TimeBehind != 0 || wl.Lagged {
		t.Fatalf("caught-up watcher shows staleness: %+v", wl)
	}
	if wl.Delivered != 8 {
		t.Fatalf("Delivered = %d, want 8", wl.Delivered)
	}
	if wl.Frontier != h.Stats().MaxSeen {
		t.Fatalf("radar frontier %v != Stats().MaxSeen %v", wl.Frontier, h.Stats().MaxSeen)
	}
}

func TestWatcherLagsBehindFrontier(t *testing.T) {
	fc := clockwork.NewFake()
	reg := metrics.NewRegistry()
	h := NewHub(HubConfig{Clock: fc, Metrics: reg})
	defer h.Close()

	g := newBlockGate()
	cancel, err := h.Watch(keyspace.Full(), NoVersion, g)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Let the watcher consume version 1, then stall it.
	h.Append(put("k", 1))
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 1})
	waitUntil(t, "first event", func() bool { evs, _, _ := g.snapshot(); return len(evs) == 1 })
	waitUntil(t, "lastSeen=1", func() bool {
		ls := h.WatcherLags()
		return len(ls) == 1 && ls[0].LastSeen == 1
	})
	g.block()

	// Advance the frontier while the watcher is stuck: versions 2..6, with a
	// progress checkpoint at a known fake-clock instant.
	fc.Advance(250 * time.Millisecond)
	for i := 2; i <= 6; i++ {
		h.Append(put("k", Version(i)))
	}
	h.Progress(ProgressEvent{Range: keyspace.Full(), Version: 6})
	fc.Advance(750 * time.Millisecond)

	// Read the radar once the dispatcher is parked in v2's callback: it
	// counts v2 as seen before the callback runs, so until then LastSeen
	// may move from 1 to 2 between two reads below.
	waitUntil(t, "dispatcher parked on v2", g.isParked)
	ls := h.WatcherLags()
	if len(ls) != 1 {
		t.Fatalf("radar has %d watchers, want 1", len(ls))
	}
	wl := ls[0]
	if wl.Frontier != 6 {
		t.Fatalf("frontier = %v, want 6", wl.Frontier)
	}
	if wl.Frontier != h.Stats().MaxSeen {
		t.Fatalf("radar frontier %v != Stats().MaxSeen %v", wl.Frontier, h.Stats().MaxSeen)
	}
	if want := uint64(wl.Frontier) - uint64(wl.LastSeen); wl.VersionLag != want {
		t.Fatalf("VersionLag = %d, want %d (%+v)", wl.VersionLag, want, wl)
	}
	if wl.VersionLag < 4 {
		t.Fatalf("VersionLag = %d, want >= 4", wl.VersionLag)
	}
	// The frontier passed the watcher's position at the checkpoint noted
	// 750 fake-ms ago.
	if wl.TimeBehind != 750*time.Millisecond {
		t.Fatalf("TimeBehind = %v, want 750ms", wl.TimeBehind)
	}

	// The scrape-time gauges report the same worst case.
	snap := reg.Snapshot()
	if got := snap.Gauges["core_hub_watcher_version_lag_max"]; got != int64(wl.VersionLag) {
		t.Fatalf("version_lag_max gauge = %d, want %d", got, wl.VersionLag)
	}
	if got := snap.Gauges["core_hub_watcher_time_behind_ns_max"]; got != int64(750*time.Millisecond) {
		t.Fatalf("time_behind_ns_max gauge = %d, want 750ms", got)
	}

	// Release the watcher; it catches up and the radar returns to zero.
	g.unblock()
	waitUntil(t, "radar back to zero", func() bool {
		ls := h.WatcherLags()
		return len(ls) == 1 && ls[0].VersionLag == 0 && ls[0].TimeBehind == 0
	})
}

func TestWatcherLagsConcurrentWithIngest(t *testing.T) {
	// Buffer exceeds total ingest so the watcher can stall behind the radar
	// scrapes without being lagged out.
	h := NewHub(HubConfig{WatcherBuffer: 4096, Metrics: metrics.NewRegistry()})
	defer h.Close()
	var c collector
	cancel, err := h.Watch(keyspace.Full(), NoVersion, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= 2000; i++ {
			h.Append(put(fmt.Sprintf("k%d", i%16), Version(i)))
			if i%100 == 0 {
				h.Progress(ProgressEvent{Range: keyspace.Full(), Version: Version(i)})
			}
		}
	}()
	// Scrape the radar while ingest is running: no races, sane invariants.
	for i := 0; i < 200; i++ {
		for _, wl := range h.WatcherLags() {
			if wl.Frontier < wl.LastSeen {
				t.Fatalf("frontier %v behind lastSeen %v", wl.Frontier, wl.LastSeen)
			}
			if wl.VersionLag != 0 && wl.VersionLag != uint64(wl.Frontier)-uint64(wl.LastSeen) {
				t.Fatalf("inconsistent lag: %+v", wl)
			}
		}
	}
	<-done
	waitUntil(t, "drain", func() bool {
		ls := h.WatcherLags()
		return len(ls) == 1 && ls[0].VersionLag == 0
	})
	if got := h.WatcherLags()[0].Frontier; got != h.Stats().MaxSeen {
		t.Fatalf("frontier %v != Stats().MaxSeen %v", got, h.Stats().MaxSeen)
	}
}

// TestLagGaugesExcludeLaggedAndCancelledWatchers is the regression test for
// the dead-watcher-reads-as-lagged bug: a watcher that lagged out (or was
// cancelled) must not pin core_hub_watcher_version_lag_max at its frozen
// cut-over lag forever.
func TestLagGaugesExcludeLaggedAndCancelledWatchers(t *testing.T) {
	reg := metrics.NewRegistry()
	h := NewHub(HubConfig{WatcherBuffer: 4, Retention: 1024, Metrics: reg})
	defer h.Close()

	g := newBlockGate()
	g.block()
	cancel, err := h.Watch(keyspace.Full(), NoVersion, g)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Overflow the blocked watcher far past its buffer: it lags out with a
	// large frozen version lag. The lag-out is read off the radar, not the
	// resync callback: a dispatcher already blocked in OnEvent delivers the
	// resync only after the gate opens.
	for i := 1; i <= 64; i++ {
		h.Append(put(fmt.Sprintf("k%d", i), Version(i)))
	}
	waitUntil(t, "lag-out", func() bool {
		ls := h.WatcherLags()
		return len(ls) == 1 && ls[0].Lagged
	})

	ls := h.WatcherLags()
	if ls[0].VersionLag == 0 {
		t.Fatal("lagged watcher shows zero lag; test lost its premise")
	}
	// The radar still reports the lagged watcher (operators want to see it),
	// but the worst-case gauges exclude it: with no healthy watcher behind,
	// both must read zero.
	snap := reg.Snapshot()
	if got := snap.Gauges["core_hub_watcher_version_lag_max"]; got != 0 {
		t.Fatalf("version_lag_max = %d with only a lagged watcher, want 0", got)
	}
	if got := snap.Gauges["core_hub_watcher_time_behind_ns_max"]; got != 0 {
		t.Fatalf("time_behind_ns_max = %d with only a lagged watcher, want 0", got)
	}
	g.unblock()

	// Cancelling removes the watcher from the radar entirely.
	cancel()
	if ls := h.WatcherLags(); len(ls) != 0 {
		t.Fatalf("radar after cancel = %+v, want empty", ls)
	}
	if got, _ := reg.GaugeValue("core_hub_watcher_version_lag_max"); got != 0 {
		t.Fatalf("version_lag_max after cancel = %d, want 0", got)
	}
}
