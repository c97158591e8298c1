package flightrec

import (
	"fmt"
	"sync"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/metrics"
)

// The detection layer turns the operator question "is something wrong right
// now?" into a handful of cheap periodic checks. Each detector samples one
// signal per tick — a gauge's level or a counter's per-tick delta — and
// compares it against an EWMA baseline of its own recent steady state. Two
// forms of hysteresis keep steady-state noise from ever firing:
//
//   - breach persistence: the signal must exceed the threshold for
//     Consecutive ticks in a row before the detector fires, so a one-tick
//     blip (a scheduler stall, a single resync) is ignored;
//   - latching: once fired, a detector stays latched — and silent — until
//     the signal drops back below threshold, so one sustained anomaly
//     produces one dump, not one per tick.
//
// The baseline only learns from non-breach samples: an anomaly cannot poison
// its own yardstick into accepting it as the new normal.

// Detector is one periodic anomaly check.
type Detector interface {
	// Name identifies the detector in dumps and metrics.
	Name() string
	// Eval runs one check and reports whether the detector fired this tick,
	// with a human-readable reason. Called from the monitor loop only; needs
	// no internal locking beyond what its sample functions do.
	Eval() (fired bool, reason string)
}

// Thresholds tunes a baseline detector. The zero value gets workable
// defaults from the constructors.
type Thresholds struct {
	// MinTrigger is the absolute floor: a sample below it is never a breach,
	// whatever the baseline says. This is the noise gate that keeps a quiet
	// system (baseline ~0) from firing on the first nonzero sample of an
	// ordinary workload.
	MinTrigger float64
	// Factor is the baseline multiple a sample must reach to breach
	// (default 4): fire only when the signal is several times its own
	// steady state, not merely above it.
	Factor float64
	// Alpha is the EWMA weight of a new (non-breach) sample, 0 < Alpha <= 1
	// (default 0.25).
	Alpha float64
	// Consecutive is how many ticks in a row must breach before the
	// detector fires (default 2).
	Consecutive int
	// Warmup is how many initial ticks only feed the baseline (default 3),
	// so a detector armed mid-traffic first learns what normal looks like.
	Warmup int
}

func (t *Thresholds) applyDefaults() {
	if t.Factor <= 0 {
		t.Factor = 4
	}
	if t.Alpha <= 0 || t.Alpha > 1 {
		t.Alpha = 0.25
	}
	if t.Consecutive <= 0 {
		t.Consecutive = 2
	}
	if t.Warmup <= 0 {
		t.Warmup = 3
	}
}

// baselineDetector implements the EWMA + hysteresis scheme over a sample
// function; delta mode differentiates a cumulative counter per tick.
type baselineDetector struct {
	name   string
	sample func() float64
	delta  bool
	th     Thresholds

	prev     float64 // last raw sample (delta mode)
	havePrev bool
	baseline float64
	warm     int
	breaches int
	latched  bool
}

// NewGaugeDetector watches a level signal (e.g. max watcher version lag):
// breach when the level is both >= MinTrigger and >= Factor× its EWMA
// baseline.
func NewGaugeDetector(name string, sample func() float64, th Thresholds) Detector {
	th.applyDefaults()
	return &baselineDetector{name: name, sample: sample, th: th}
}

// NewDeltaDetector watches a cumulative counter (e.g. resyncs_total):
// each tick evaluates the counter's increase since the previous tick.
func NewDeltaDetector(name string, sample func() float64, th Thresholds) Detector {
	th.applyDefaults()
	return &baselineDetector{name: name, sample: sample, delta: true, th: th}
}

func (d *baselineDetector) Name() string { return d.name }

func (d *baselineDetector) Eval() (bool, string) {
	v := d.sample()
	if d.delta {
		raw := v
		if d.havePrev {
			v = raw - d.prev
		} else {
			v = 0
		}
		d.prev, d.havePrev = raw, true
	}
	if d.warm < d.th.Warmup {
		d.warm++
		d.baseline += d.th.Alpha * (v - d.baseline)
		return false, ""
	}
	breach := v >= d.th.MinTrigger && v >= d.baseline*d.th.Factor
	if !breach {
		d.breaches = 0
		d.latched = false
		d.baseline += d.th.Alpha * (v - d.baseline)
		return false, ""
	}
	d.breaches++
	if d.breaches >= d.th.Consecutive && !d.latched {
		d.latched = true
		return true, fmt.Sprintf("%s: value %.1f over baseline %.2f for %d ticks (floor %.1f, factor %.1fx)",
			d.name, v, d.baseline, d.breaches, d.th.MinTrigger, d.th.Factor)
	}
	return false, ""
}

// stallDetector fires when work keeps arriving but output stops: the
// delivery-stall shape, where appends advance while deliveries stay flat.
// No baseline needed — "input moves, output doesn't" is anomalous at any
// rate above the MinWork noise gate.
type stallDetector struct {
	name         string
	work, output func() float64
	minWork      float64
	consecutive  int

	prevWork, prevOut float64
	havePrev          bool
	stalls            int
	latched           bool
}

// NewStallDetector watches two cumulative counters; it fires after
// consecutive ticks in which work advanced by >= minWork while output did
// not advance at all.
func NewStallDetector(name string, work, output func() float64, minWork float64, consecutive int) Detector {
	if minWork <= 0 {
		minWork = 1
	}
	if consecutive <= 0 {
		consecutive = 3
	}
	return &stallDetector{name: name, work: work, output: output, minWork: minWork, consecutive: consecutive}
}

func (d *stallDetector) Name() string { return d.name }

func (d *stallDetector) Eval() (bool, string) {
	w, o := d.work(), d.output()
	if !d.havePrev {
		d.prevWork, d.prevOut, d.havePrev = w, o, true
		return false, ""
	}
	dw, do := w-d.prevWork, o-d.prevOut
	d.prevWork, d.prevOut = w, o
	if dw >= d.minWork && do == 0 {
		d.stalls++
	} else {
		d.stalls = 0
		d.latched = false
	}
	if d.stalls >= d.consecutive && !d.latched {
		d.latched = true
		return true, fmt.Sprintf("%s: %.0f units of work over %d ticks with zero output", d.name, dw*float64(d.stalls), d.stalls)
	}
	return false, ""
}

// CounterSample returns a sample function summing the named registry
// counters — the glue between detectors and the subsystems' existing
// instruments, which keeps this package free of core/remote imports.
func CounterSample(reg *metrics.Registry, names ...string) func() float64 {
	reg = reg.Or()
	cs := make([]*metrics.Counter, len(names))
	for i, n := range names {
		cs[i] = reg.Counter(n)
	}
	return func() float64 {
		var sum int64
		for _, c := range cs {
			sum += c.Value()
		}
		return float64(sum)
	}
}

// GaugeSample returns a sample function reading the named gauge (stored or
// function-backed) from the registry; missing gauges read as 0.
func GaugeSample(reg *metrics.Registry, name string) func() float64 {
	reg = reg.Or()
	return func() float64 {
		v, _ := reg.GaugeValue(name)
		return float64(v)
	}
}

// StandardDetectors builds the watch stack's six stock detectors against
// the given registry, keyed entirely off instrument names so the wiring
// works for any combination of hub, remote, and pubsub components
// registered there:
//
//   - watcher-lag-spike: the lag radar's max version lag jumps far above
//     its steady state;
//   - resync-burst: resyncs (the contract's explicit "you diverged"
//     signal) arrive in a burst;
//   - overflow-burst: watcher-buffer and remote-outbox overflows cluster —
//     the §3.1 failure shape, caught as it happens;
//   - heartbeat-gap: either transport side saw a silent peer (any miss is
//     anomalous, so the floor is 1 and the baseline factor irrelevant);
//   - delivery-stall: ingest advances while deliveries stay flat;
//   - memory-pressure: the governor escalated past eviction into shedding
//     or admission control (pressure level ≥ 2 = Shed) — the black box
//     should capture the storm that pushed it there, not just the gauges
//     after the fact.
func StandardDetectors(reg *metrics.Registry) []Detector {
	reg = reg.Or()
	return []Detector{
		NewGaugeDetector("watcher-lag-spike",
			GaugeSample(reg, "core_hub_watcher_version_lag_max"),
			Thresholds{MinTrigger: 1024, Factor: 8}),
		NewDeltaDetector("resync-burst",
			CounterSample(reg, "core_hub_resyncs_total"),
			Thresholds{MinTrigger: 3, Factor: 4}),
		NewDeltaDetector("overflow-burst",
			CounterSample(reg,
				"core_hub_append_overflow_total",
				"core_hub_replay_overflow_total",
				"remote_server_overflow_resyncs_total"),
			Thresholds{MinTrigger: 3, Factor: 4}),
		NewDeltaDetector("heartbeat-gap",
			CounterSample(reg,
				"remote_client_heartbeat_misses_total",
				"remote_server_heartbeat_misses_total"),
			Thresholds{MinTrigger: 1, Factor: 1, Consecutive: 1}),
		NewStallDetector("delivery-stall",
			CounterSample(reg, "core_hub_appends_total"),
			CounterSample(reg, "core_hub_delivered_total"),
			1, 3),
		NewGaugeDetector("memory-pressure",
			GaugeSample(reg, "govern_pressure_level"),
			Thresholds{MinTrigger: 2, Factor: 1, Consecutive: 1}),
	}
}

// MonitorConfig tunes a Monitor.
type MonitorConfig struct {
	// Interval between detector evaluations (default 1s).
	Interval time.Duration
	// Clock drives the tick loop; nil uses the real clock. Tests inject
	// clockwork.NewFake() and call Tick directly for determinism.
	Clock clockwork.Clock
	// Detectors to evaluate each tick (typically StandardDetectors plus any
	// deployment-specific ones).
	Detectors []Detector
	// OnTrigger is called, from the monitor goroutine, for each detector
	// firing — usually a Capturer.Trigger.
	OnTrigger func(detector, reason string)
	// Metrics receives flightrec_detector_fires_total; nil uses
	// metrics.Default().
	Metrics *metrics.Registry
}

// Monitor evaluates a detector set on clock ticks. Detectors are stateful
// and unsynchronized; Tick serializes them under the monitor's mutex, so
// tests may call Tick while a Start loop idles on a fake clock.
type Monitor struct {
	cfg   MonitorConfig
	clock clockwork.Clock
	fires *metrics.Counter

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewMonitor creates a Monitor; call Start for the background loop or Tick
// directly for deterministic evaluation.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = clockwork.Real()
	}
	return &Monitor{
		cfg:   cfg,
		clock: clock,
		fires: cfg.Metrics.Or().Counter("flightrec_detector_fires_total"),
	}
}

// Tick evaluates every detector once, invoking OnTrigger for each firing.
func (m *Monitor) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.cfg.Detectors {
		fired, reason := d.Eval()
		if !fired {
			continue
		}
		m.fires.Inc()
		if m.cfg.OnTrigger != nil {
			m.cfg.OnTrigger(d.Name(), reason)
		}
	}
}

// Start launches the tick loop. Stop ends it; Start after Stop restarts.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	go func() {
		defer close(done)
		t := m.clock.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C():
				m.Tick()
			}
		}
	}()
}

// Stop halts the tick loop and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
