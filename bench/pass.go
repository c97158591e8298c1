package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is what one pass over a workload measured: the slices of its
// open-loop (paced) phase, if it has one, and of its throughput phase.
type passResult struct {
	setupS float64
	// fanout is how many consumers each written key reaches. An event is one
	// delivery, so per-event costs of the layers above the fan-out (mvcc
	// commit, hub append) are spread over it.
	fanout      int64
	paced, thru []sliceStats
	heapLiveMB  float64
	// End-of-pass state of the stack, read before it is torn down.
	versionsHeld, retained, sealedSegs       int64
	resyncs, appendOverflow, remoteOverflows int64
	clientResyncs, pressureMax               int64
}

// pass runs one pass over the workload: buildUps build-ups of the stack, of
// which the last is kept and the median time reported, then one warm-up and
// as many timed slices of every phase as budget holds.
func (h *harness) pass(buildUps int, budget time.Duration) (res passResult, err error) {
	watchdog := time.AfterFunc(budget+4*waitLimit, func() { h.fail("watchdog: pass still running after %v", budget+4*waitLimit) })
	defer watchdog.Stop()

	base := h.heapLive() // the harness's own buffers, all allocated by now
	var setups []float64
	for i := range buildUps {
		if i > 0 {
			h.st.close()
			h.st = nil
			runtime.GC()
		}
		t0 := time.Now()
		st, err := h.buildStack()
		setups = append(setups, time.Since(t0).Seconds())
		if verbose {
			fmt.Fprintf(os.Stderr, "%s build-up %d: %.4f s\n", h.w.name, i, setups[i])
		}
		if err != nil {
			st.close()
			return res, fmt.Errorf("build-up: %w", err)
		}
	}
	defer func() { h.st.close() }()
	res.setupS = median(setups)
	res.fanout = int64(h.w.consumers / h.w.slots)
	if c := h.recover; c != nil {
		entries, at, err := h.st.store.SnapshotRange(keyspace.Full())
		if err != nil {
			return res, err
		}
		c.wantCount, c.wantAt = len(entries), at
		c.wantSum, _ = snapshotSum(entries)
	}

	type phase struct {
		id     uint32
		body   func(deadline int64) (events, ops int64, err error)
		slices *[]sliceStats
	}
	var phases []phase
	switch h.w.kind {
	case kindLive:
		phases = []phase{{phPaced, h.pacedSlice, &res.paced}, {phBurst, h.burstSlice, &res.thru}}
	case kindCatchup:
		phases = []phase{{phRounds, h.catchupSlice, &res.thru}}
	case kindRecover:
		phases = []phase{{phRounds, h.recoverSlice, &res.thru}}
	}
	// The phases take turns slice by slice, so each phase's slices span the
	// whole pass and a host speed regime of some seconds cannot cover all of
	// one phase and none of the other. Round -1 is the warm-up.
	n := slicesFor(budget, len(phases))
	for i := -1; i < n; i++ {
		for _, p := range phases {
			h.phase.Store(p.id)
			h.timing.Store(p.id != phBurst)
			st, err := h.timedSlice(p.body)
			if err != nil {
				return res, fmt.Errorf("%s slice %d: %w", phaseNames[p.id], i, err)
			}
			if i >= 0 {
				*p.slices = append(*p.slices, st)
			}
			if verbose {
				fmt.Fprintf(os.Stderr, "%s %s slice %2d: %10.0f events/s  p50 %9.1f us  p99 %9.1f us  %d ops\n",
					h.w.name, phaseNames[p.id], i, eventsPerS(&st), float64(st.p50)/1e3, float64(st.p99)/1e3, st.ops)
			}
		}
	}

	// Live heap is taken as a slice would start: history trimmed to the head,
	// so it does not depend on how many commits the last slice happened to fit.
	s := h.st
	s.store.GCBefore(core.Version(s.head))
	res.heapLiveMB = float64(int64(h.heapLive())-int64(base)) / (1 << 20)
	res.versionsHeld = s.store.Stats().VersionsHeld
	res.retained, _ = s.reg.GaugeValue("core_hub_retained_events")
	res.sealedSegs, _ = s.reg.GaugeValue("core_hub_sealed_segments")
	res.resyncs = s.counter("core_hub_resyncs_total")
	res.appendOverflow = s.counter("core_hub_append_overflow_total")
	res.remoteOverflows = s.counter("remote_server_overflow_resyncs_total")
	res.clientResyncs = s.counter("remote_client_resyncs_total")
	// The governor must never leave Steady: any transition counts as level 1
	// at least, whatever the level is by now.
	res.pressureMax = max(int64(s.gov.Pressure()), min(s.counter("govern_pressure_transitions_total"), 1))
	// Anything the stack itself counted as a loss fails the run even if every
	// consumer's stream settled.
	if bad := res.resyncs + res.appendOverflow + res.remoteOverflows + res.clientResyncs + res.pressureMax; bad != 0 {
		h.failed += bad
	}
	return res, h.failure()
}

func floats(ss []sliceStats, f func(*sliceStats) float64) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = f(&ss[i])
	}
	return out
}

func eventsPerS(s *sliceStats) float64 { return float64(s.events) / (float64(s.elapsedNs) / 1e9) }

// sum folds the slices' additive accounting into one.
func sum(ss []sliceStats) (t sliceStats) {
	for i := range ss {
		s := &ss[i]
		t.events += s.events
		t.ops += s.ops
		t.elapsedNs += s.elapsedNs
		t.d = t.d.plus(s.d)
		for n := range s.self {
			t.self[n] += s.self[n]
			t.selfCount[n] += s.selfCount[n]
		}
	}
	return t
}

// staleSlices is the phase staleness is taken from: the open loop where the
// workload has one, its rounds otherwise.
func (r *passResult) staleSlices() []sliceStats {
	if len(r.paced) > 0 {
		return r.paced
	}
	return r.thru
}

// endToEnd is the metric set a user of the system would see. Every timed
// value is a median over slices; the two memory values are exact counts.
func (r *passResult) endToEnd() map[string]metric {
	thru := sum(r.thru)
	return map[string]metric{
		"setup_s":               {r.setupS, "s"},
		"events_per_s":          {median(floats(r.thru, eventsPerS)), "1/s"},
		"staleness_p50_us":      {median(floats(r.staleSlices(), func(s *sliceStats) float64 { return float64(s.p50) / 1e3 })), "us"},
		"alloc_bytes_per_event": {float64(thru.d[cAllocBytes]) / float64(thru.events), "B"},
		"heap_live_mb":          {r.heapLiveMB, "MB"},
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer is the traced pass's metric set; untraced is the same workload's
// untraced pass in the same process, which the tracing overhead is taken
// against. Costs and counts come from the throughput phase, waits from the
// phase staleness comes from. A metric that does not apply to the workload
// reads 0.
func (r *passResult) perLayer(untraced *passResult) map[string]metric {
	thru, paced := sum(r.thru), sum(r.paced)
	d := thru.d
	stale := r.staleSlices()
	p50us := func(f func(*sliceStats) int64) float64 {
		return median(floats(stale, func(s *sliceStats) float64 { return float64(f(s)) / 1e3 }))
	}
	rates := floats(untraced.thru, eventsPerS)
	spread := 0.0
	if m := median(rates); m > 0 {
		spread = 100 * (slices.Max(rates) - slices.Min(rates)) / m
	}
	return map[string]metric{
		"mvcc.commit_self_ns_per_event":  {ratio(thru.self[spCommit], thru.selfCount[spCommit]*keysPerTxn*r.fanout), "ns"},
		"mvcc.snapshot_ns_per_entry":     {ratio(d[cStoreSnapNs], d[cStoreSnapEnts]), "ns"},
		"mvcc.versions_held":             {float64(r.versionsHeld), "count"},
		"core.append_ns_per_event":       {ratio(d[cAppendNs], d[cAppendEvents]*r.fanout), "ns"},
		"core.progress_ns_per_commit":    {ratio(d[cProgressNs], d[cProgressCalls]), "ns"},
		"core.dispatch_wait_p50_us":      {p50us(func(s *sliceStats) int64 { return s.waitP50 }), "us"},
		"core.events_per_dispatch":       {ratio(d[cDispatchEvs], d[cDispatchCalls]), "count"},
		"core.watch_ns_per_call":         {ratio(d[cHubWatchNs], d[cHubWatchCalls]), "ns"},
		"core.replay_ns_per_event":       {ratio(d[cReplayNs], d[cReplayEvents]), "ns"},
		"core.resyncs":                   {float64(r.resyncs), "count"},
		"core.append_overflow":           {float64(r.appendOverflow), "count"},
		"core.retained_events":           {float64(r.retained), "count"},
		"core.sealed_segments":           {float64(r.sealedSegs), "count"},
		"remote.enqueue_ns_per_event":    {ratio(d[cEnqueueNs], d[cDispatchEvs]), "ns"},
		"remote.transit_p50_us":          {p50us(func(s *sliceStats) int64 { return s.transP50 }), "us"},
		"remote.wire_bytes_per_event":    {ratio(d[cWireBytes], thru.events), "B"},
		"remote.events_per_frame":        {ratio(d[cWireEvents], d[cFrames]), "count"},
		"remote.client_reads_per_kevent": {1e3 * ratio(d[cClientReads], thru.events), "count"},
		"remote.watch_rtt_p50_us":        {p50us(func(s *sliceStats) int64 { return s.watchP50 }), "us"},
		"remote.snapshot_rtt_p50_ms":     {p50us(func(s *sliceStats) int64 { return s.snapP50 }) / 1e3, "ms"},
		"remote.snapshot_chunks":         {ratio(d[cSnapChunks], thru.ops), "count"},
		"govern.pressure_max":            {float64(r.pressureMax), "count"},
		"flightrec.records":              {float64(d[cFlightrec]), "count"},
		"bench.cpu_ns_per_event_paced":   {ratio(paced.d[cCPUNs], paced.events), "ns"},
		"bench.cpu_ns_per_event_burst":   {ratio(d[cCPUNs], thru.events), "ns"},
		"bench.allocs_per_event":         {ratio(d[cMallocs], thru.events), "count"},
		"bench.gc_cycles":                {float64(d[cGCCycles]), "count"},
		"bench.gc_pause_ms":              {float64(d[cGCPauseNs]) / 1e6, "ms"},
		"bench.staleness_p99_us":         {median(floats(stale, func(s *sliceStats) float64 { return float64(s.p99) / 1e3 })), "us"},
		"bench.gen_lag_p99_us":           {median(floats(r.paced, func(s *sliceStats) float64 { return float64(s.genLagP99) / 1e3 })), "us"},
		"bench.slice_spread_pct":         {spread, "%"},
		"bench.trace_overhead_pct":       {100 * (1 - median(floats(r.thru, eventsPerS))/median(rates)), "%"},
	}
}

// dumpSpans writes the traced pass's spans beside the other run outputs.
func (h *harness) dumpSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return h.tr.spans.dump(filepath.Join(dir, "spans-"+h.w.name+".jsonl"))
}
