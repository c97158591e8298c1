package flightrec

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/metrics"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(KindWatcherAdd, Event{ID: 1}) // must not panic
	if got := r.Tail(10); got != nil {
		t.Fatalf("nil recorder Tail = %v, want nil", got)
	}
	if r.Len() != 0 || r.Recorded() != 0 {
		t.Fatal("nil recorder reports contents")
	}
}

func TestRecorderTailOrderedAndBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Config{Shards: 3, PerShard: 8, Metrics: reg})
	const writes = 100
	for i := 0; i < writes; i++ {
		r.Record(KindSegmentSeal, Event{Comp: "core.hub", N: int64(i)})
	}
	if r.Recorded() != writes {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), writes)
	}
	if r.Len() != 3*8 {
		t.Fatalf("Len = %d, want full rings %d", r.Len(), 3*8)
	}
	tail := r.Tail(0)
	if len(tail) != 3*8 {
		t.Fatalf("Tail(0) = %d records, want %d", len(tail), 3*8)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail not ascending at %d: %d then %d", i, tail[i-1].Seq, tail[i].Seq)
		}
	}
	// The last record written must be the last in the tail.
	if last := tail[len(tail)-1]; last.Seq != writes || last.N != writes-1 {
		t.Fatalf("last tail record seq=%d n=%d, want seq=%d n=%d", last.Seq, last.N, writes, writes-1)
	}
	if got := r.Tail(5); len(got) != 5 || got[4].Seq != writes {
		t.Fatalf("Tail(5) = %d records ending seq %d", len(got), got[len(got)-1].Seq)
	}
	if v := reg.Counter("flightrec_records_total").Value(); v != writes {
		t.Fatalf("flightrec_records_total = %d, want %d", v, writes)
	}
}

// TestRareRecordsSurviveAStorm: a lag-out recorded before a storm of
// 11,000 watcher-churn and segment-seal records — five times what the
// common rings hold — is still in the tail afterwards, in sequence order
// with the storm's newest records.
func TestRareRecordsSurviveAStorm(t *testing.T) {
	r := New(Config{Metrics: metrics.NewRegistry()})
	r.Record(KindWatcherLagOut, Event{Comp: "core.hub", ID: 7, Detail: "watcher buffer overflow"})
	for i := 0; i < 10000; i++ {
		k := KindWatcherAdd
		if i%2 == 1 {
			k = KindWatcherRemove
		}
		r.Record(k, Event{Comp: "core.hub", ID: int64(i)})
	}
	for i := 0; i < 1000; i++ {
		r.Record(KindSegmentSeal, Event{Comp: "core.hub", N: int64(i)})
	}
	tail := r.Tail(256)
	if len(tail) != 257 {
		t.Fatalf("Tail(256) = %d records, want the 256 newest plus the lag-out", len(tail))
	}
	if first := tail[0]; first.Kind != KindWatcherLagOut || first.Seq != 1 || first.ID != 7 {
		t.Fatalf("tail starts with %+v, want the lag-out at seq 1", first)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail not ascending at %d: %d then %d", i, tail[i-1].Seq, tail[i].Seq)
		}
	}
	if last := tail[len(tail)-1]; last.Seq != r.Recorded() {
		t.Fatalf("tail ends at seq %d, want the newest %d", last.Seq, r.Recorded())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := New(Config{Metrics: metrics.NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := KindWatcherAdd
				if i%8 == 0 {
					k = KindRemoteDisconnect // the rare ring, written concurrently too
				}
				r.Record(k, Event{ID: int64(g)})
				if g == 0 {
					r.Tail(16)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Recorded() != 8*200 {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), 8*200)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := KindUnknown; int(k) < len(kindNames); k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %d round-tripped to %d via %q", k, back, b)
		}
	}
}

// tickerGauge drives a gauge detector through a synthetic anomaly.
func TestGaugeDetectorFiresOnSpikeAndLatches(t *testing.T) {
	v := 10.0
	d := NewGaugeDetector("lag", func() float64 { return v }, Thresholds{MinTrigger: 1024, Factor: 8})
	// Warmup + steady state: never fires.
	for i := 0; i < 20; i++ {
		if fired, _ := d.Eval(); fired {
			t.Fatalf("fired on steady state at tick %d", i)
		}
	}
	// Spike: above floor and far above baseline. Fires on the 2nd
	// consecutive breach (default Consecutive=2), then stays latched.
	v = 5000
	if fired, _ := d.Eval(); fired {
		t.Fatal("fired on first breach tick, want persistence of 2")
	}
	fired, reason := d.Eval()
	if !fired {
		t.Fatal("did not fire on second consecutive breach")
	}
	if reason == "" {
		t.Fatal("fired with empty reason")
	}
	for i := 0; i < 10; i++ {
		if fired, _ := d.Eval(); fired {
			t.Fatal("refired while latched")
		}
	}
	// Recovery unlatches; a new spike fires again.
	v = 10
	d.Eval()
	v = 5000
	d.Eval()
	if fired, _ := d.Eval(); !fired {
		t.Fatal("did not refire after recovery")
	}
}

func TestDeltaDetectorFiresOnBurstNotOnSteadyRate(t *testing.T) {
	var total float64
	d := NewDeltaDetector("resyncs", func() float64 { return total }, Thresholds{MinTrigger: 3, Factor: 4})
	// A steady trickle: one resync every other tick, forever. The baseline
	// learns it; the floor and factor keep it silent.
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			total++
		}
		if fired, _ := d.Eval(); fired {
			t.Fatalf("fired on steady trickle at tick %d", i)
		}
	}
	// Burst: 50 resyncs in one tick, sustained one more tick.
	total += 50
	d.Eval()
	total += 50
	if fired, _ := d.Eval(); !fired {
		t.Fatal("did not fire on resync burst")
	}
}

func TestStallDetectorFiresWhenOutputStops(t *testing.T) {
	var work, out float64
	d := NewStallDetector("stall", func() float64 { return work }, func() float64 { return out }, 1, 3)
	// Healthy: both advance.
	for i := 0; i < 10; i++ {
		work += 100
		out += 100
		if fired, _ := d.Eval(); fired {
			t.Fatal("fired while healthy")
		}
	}
	// Work continues, output flatlines: fires after 3 consecutive ticks.
	for i := 0; i < 2; i++ {
		work += 100
		if fired, _ := d.Eval(); fired {
			t.Fatalf("fired after only %d stalled ticks", i+1)
		}
	}
	work += 100
	if fired, _ := d.Eval(); !fired {
		t.Fatal("did not fire after 3 stalled ticks")
	}
	work += 100
	if fired, _ := d.Eval(); fired {
		t.Fatal("refired while latched")
	}
	// Output resumes, then stalls again: refires.
	work += 100
	out += 1
	d.Eval()
	for i := 0; i < 3; i++ {
		work += 100
		d.Eval()
	}
	work += 100
	if fired, _ := d.Eval(); fired {
		t.Fatal("stall refire accounting broken: latched fire should have happened a tick earlier")
	}
}

func TestHeartbeatDetectorFiresOnSingleMiss(t *testing.T) {
	reg := metrics.NewRegistry()
	misses := reg.Counter("remote_client_heartbeat_misses_total")
	d := NewDeltaDetector("heartbeat-gap",
		CounterSample(reg, "remote_client_heartbeat_misses_total", "remote_server_heartbeat_misses_total"),
		Thresholds{MinTrigger: 1, Factor: 1, Consecutive: 1})
	// Warmup (3 ticks) then quiet.
	for i := 0; i < 10; i++ {
		if fired, _ := d.Eval(); fired {
			t.Fatalf("fired with no misses at tick %d", i)
		}
	}
	misses.Inc()
	if fired, _ := d.Eval(); !fired {
		t.Fatal("did not fire on a single heartbeat miss")
	}
}

// TestStandardDetectorsQuietSteadyState simulates ten minutes of healthy
// 1s-tick operation — constant append/delivery traffic, an occasional
// isolated resync, bounded watcher lag — and requires that no stock
// detector ever fires.
func TestStandardDetectorsQuietSteadyState(t *testing.T) {
	reg := metrics.NewRegistry()
	appends := reg.Counter("core_hub_appends_total")
	delivered := reg.Counter("core_hub_delivered_total")
	resyncs := reg.Counter("core_hub_resyncs_total")
	lag := reg.Gauge("core_hub_watcher_version_lag_max")

	clock := clockwork.NewFake()
	var fires []string
	mon := NewMonitor(MonitorConfig{
		Interval:  time.Second,
		Clock:     clock,
		Detectors: StandardDetectors(reg),
		OnTrigger: func(name, reason string) { fires = append(fires, name+": "+reason) },
		Metrics:   reg,
	})
	for i := 0; i < 600; i++ { // 10 simulated minutes
		appends.Add(1000)
		delivered.Add(8000)
		lag.Set(int64(100 + i%50)) // jittering but bounded lag
		if i%60 == 30 {
			resyncs.Inc() // one isolated resync a minute
		}
		mon.Tick()
	}
	if len(fires) != 0 {
		t.Fatalf("detectors fired on steady state: %v", fires)
	}
	if v := reg.Counter("flightrec_detector_fires_total").Value(); v != 0 {
		t.Fatalf("flightrec_detector_fires_total = %d, want 0", v)
	}
}

// TestStandardDetectorsFireOnSyntheticAnomalies drives each stock detector
// through its own anomaly shape and requires exactly the right one to fire.
func TestStandardDetectorsFireOnSyntheticAnomalies(t *testing.T) {
	cases := []struct {
		detector string
		anomaly  func(reg *metrics.Registry, tick func())
	}{
		{"watcher-lag-spike", func(reg *metrics.Registry, tick func()) {
			reg.Gauge("core_hub_watcher_version_lag_max").Set(1 << 20)
			tick()
			tick()
		}},
		{"resync-burst", func(reg *metrics.Registry, tick func()) {
			reg.Counter("core_hub_resyncs_total").Add(100)
			tick()
			reg.Counter("core_hub_resyncs_total").Add(100)
			tick()
		}},
		{"overflow-burst", func(reg *metrics.Registry, tick func()) {
			reg.Counter("core_hub_append_overflow_total").Add(40)
			reg.Counter("remote_server_overflow_resyncs_total").Add(10)
			tick()
			reg.Counter("core_hub_append_overflow_total").Add(50)
			tick()
		}},
		{"heartbeat-gap", func(reg *metrics.Registry, tick func()) {
			reg.Counter("remote_server_heartbeat_misses_total").Inc()
			tick()
		}},
		{"delivery-stall", func(reg *metrics.Registry, tick func()) {
			for i := 0; i < 4; i++ {
				reg.Counter("core_hub_appends_total").Add(500)
				tick()
			}
		}},
		{"memory-pressure", func(reg *metrics.Registry, tick func()) {
			// The governor escalated to Shed (level 2): one tick fires.
			reg.Gauge("govern_pressure_level").Set(2)
			tick()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.detector, func(t *testing.T) {
			reg := metrics.NewRegistry()
			var fires []string
			mon := NewMonitor(MonitorConfig{
				Detectors: StandardDetectors(reg),
				OnTrigger: func(name, _ string) { fires = append(fires, name) },
				Metrics:   reg,
			})
			// Settle every detector into a healthy baseline first.
			for i := 0; i < 10; i++ {
				reg.Counter("core_hub_appends_total").Add(100)
				reg.Counter("core_hub_delivered_total").Add(100)
				mon.Tick()
			}
			tc.anomaly(reg, func() {
				// The healthy background continues during the anomaly except
				// for delivery-stall, whose anomaly is that delivery stops.
				if tc.detector != "delivery-stall" {
					reg.Counter("core_hub_appends_total").Add(100)
					reg.Counter("core_hub_delivered_total").Add(100)
				}
				mon.Tick()
			})
			found := false
			for _, f := range fires {
				if f == tc.detector {
					found = true
				} else {
					t.Errorf("unexpected detector %q fired", f)
				}
			}
			if !found {
				t.Fatalf("detector %q did not fire on its anomaly", tc.detector)
			}
		})
	}
}

func TestMonitorRunsOnFakeClockTicks(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := clockwork.NewFake()
	misses := reg.Counter("remote_client_heartbeat_misses_total")
	fired := make(chan string, 8)
	mon := NewMonitor(MonitorConfig{
		Interval:  time.Second,
		Clock:     clock,
		Detectors: StandardDetectors(reg),
		OnTrigger: func(name, _ string) { fired <- name },
		Metrics:   reg,
	})
	mon.Start()
	defer mon.Stop()
	// The fake ticker drops coalesced ticks (capacity-1 channel), so pace
	// the advances against the monitor goroutine: a miss lands before every
	// tick, and any tick consumed after warmup sees the nonzero delta.
	deadline := time.After(10 * time.Second)
	for {
		misses.Inc()
		clock.Advance(time.Second)
		select {
		case name := <-fired:
			if name != "heartbeat-gap" {
				t.Fatalf("fired %q, want heartbeat-gap", name)
			}
			return
		case <-deadline:
			t.Fatal("monitor did not fire within real-time budget")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestCapturerAssemblesDump(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := clockwork.NewFake()
	rec := New(Config{Clock: clock, Metrics: reg})
	dir := t.TempDir()
	c := NewCapturer(CaptureConfig{
		Recorder: rec,
		Metrics:  reg,
		Lags:     func() any { return []string{"w1", "w2"} },
		Dir:      dir,
		Clock:    clock,
	})
	reg.Counter("core_hub_resyncs_total").Add(7)
	rec.Record(KindWatcherLagOut, Event{Comp: "core.hub", ID: 42, Detail: "buffer overflow"})

	d := c.Trigger("resync-burst", "test reason")
	if d == nil {
		t.Fatal("first trigger returned nil")
	}
	if d.ID != 1 || d.Detector != "resync-burst" || d.Reason != "test reason" {
		t.Fatalf("dump header = %+v", d)
	}
	if len(d.Records) != 1 || d.Records[0].Kind != KindWatcherLagOut || d.Records[0].ID != 42 {
		t.Fatalf("dump records = %+v", d.Records)
	}
	if d.CounterDelta["core_hub_resyncs_total"] != 7 {
		t.Fatalf("counter delta = %v", d.CounterDelta)
	}
	if d.Metrics.Counters["core_hub_resyncs_total"] != 7 {
		t.Fatal("metrics snapshot missing")
	}
	if d.File == "" {
		t.Fatal("dump not written to disk")
	}
	// The on-disk JSON decodes back with named kinds.
	b, err := os.ReadFile(d.File)
	if err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("dump file does not decode: %v", err)
	}
	if back.Records[0].Kind != KindWatcherLagOut {
		t.Fatalf("kind did not round-trip through disk: %v", back.Records[0].Kind)
	}
	if filepath.Dir(d.File) != dir {
		t.Fatalf("dump written outside Dir: %s", d.File)
	}

	// Storm guard: a second trigger within MinInterval is dropped...
	if got := c.Trigger("resync-burst", "again"); got != nil {
		t.Fatal("storm guard did not drop a back-to-back trigger")
	}
	// ...but one after the interval captures, with a delta relative to the
	// previous capture, not to process start.
	clock.Advance(2 * time.Second)
	reg.Counter("core_hub_resyncs_total").Add(3)
	d2 := c.Trigger("resync-burst", "later")
	if d2 == nil {
		t.Fatal("post-interval trigger dropped")
	}
	if d2.CounterDelta["core_hub_resyncs_total"] != 3 {
		t.Fatalf("second delta = %v, want 3", d2.CounterDelta)
	}
	if got, ok := c.Dump(1); !ok || got.ID != 1 {
		t.Fatal("Dump(1) lookup failed")
	}
	if _, ok := c.Dump(99); ok {
		t.Fatal("Dump(99) found a ghost")
	}
	if ds := c.Dumps(); len(ds) != 2 {
		t.Fatalf("Dumps = %d, want 2", len(ds))
	}
}

func TestCapturerBoundsRetainedDumps(t *testing.T) {
	clock := clockwork.NewFake()
	reg := metrics.NewRegistry()
	c := NewCapturer(CaptureConfig{Metrics: reg, MaxDumps: 3, MinInterval: time.Millisecond, Clock: clock})
	for i := 0; i < 10; i++ {
		clock.Advance(time.Second)
		if d := c.Trigger("d", fmt.Sprintf("r%d", i)); d == nil {
			t.Fatalf("trigger %d dropped", i)
		}
	}
	ds := c.Dumps()
	if len(ds) != 3 {
		t.Fatalf("retained %d dumps, want 3", len(ds))
	}
	if ds[0].ID != 8 || ds[2].ID != 10 {
		t.Fatalf("retained ids %d..%d, want 8..10", ds[0].ID, ds[2].ID)
	}
}

func TestStackWiresTriggerToCapture(t *testing.T) {
	reg := metrics.NewRegistry()
	clock := clockwork.NewFake()
	st := NewStack(StackConfig{Metrics: reg, Clock: clock})
	st.Rec.Record(KindRemoteDisconnect, Event{Comp: "remote.client", ID: 1, Detail: "connection reset"})
	// Settle, then a heartbeat miss: the monitor must capture a dump that
	// contains the disconnect record.
	for i := 0; i < 5; i++ {
		st.Mon.Tick()
	}
	reg.Counter("remote_client_heartbeat_misses_total").Inc()
	clock.Advance(time.Second) // storm-guard headroom for the capture instant
	st.Mon.Tick()
	ds := st.Cap.Dumps()
	if len(ds) != 1 {
		t.Fatalf("stack captured %d dumps, want 1", len(ds))
	}
	if ds[0].Detector != "heartbeat-gap" {
		t.Fatalf("dump detector = %q", ds[0].Detector)
	}
	found := false
	for _, r := range ds[0].Records {
		if r.Kind == KindRemoteDisconnect && r.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("dump timeline missing the disconnect record")
	}
}
