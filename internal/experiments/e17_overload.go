package experiments

import (
	"fmt"
	"sync"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
)

func init() {
	register(Experiment{
		ID:     "E17",
		Title:  "Overload protection: a watcher storm degrades to eviction, shedding and explicit refusal — never OOM, never silence",
		Anchor: "§3.1/§4.2 (broadcast storms; the contract under overload)",
		Run:    runE17,
	})
}

// e17Sink mirrors its watcher's range into a map, like e13Sink; gate, when
// non-nil, blocks every ApplyChange until released — the deliberately slow
// consumer whose ring the governor must eventually shed.
type e17Sink struct {
	mu    sync.Mutex
	state map[keyspace.Key]string
	gate  chan struct{}
}

func (s *e17Sink) ResetSnapshot(r keyspace.Range, entries []core.Entry, at core.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.state {
		if r.Contains(k) {
			delete(s.state, k)
		}
	}
	for _, e := range entries {
		s.state[e.Key] = string(e.Value)
	}
}

func (s *e17Sink) ApplyChange(ev core.ChangeEvent) {
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Mut.Op == core.OpDelete {
		delete(s.state, ev.Key)
		return
	}
	s.state[ev.Key] = string(ev.Mut.Value)
}

func (s *e17Sink) AdvanceFrontier(core.ProgressEvent) {}

// runE17 drives a governed hub through a watcher storm. A handful of
// consumers stop draining entirely while a producer floods large values:
// the governor must walk its ladder in order — accelerate eviction to the
// retention floor, shed the worst-offending watchers with an explicit
// resync and a quarantine, and refuse their too-eager re-admission with a
// typed retry hint. When the storm subsides, every consumer — including
// every shed one — must converge to a byte-equal replica: degraded service
// recovers to full correctness, and at no point did the process trade the
// contract for memory.
func runE17(opts Options) (*Result, error) {
	e, _ := Get("E17")
	return run(e, opts, func(res *Result) error {
		watchers := opts.pick(6, 16)
		slow := opts.pick(2, 4)
		events := opts.pick(3000, 12000)
		valSize := opts.pick(1024, 2048)
		budget := int64(opts.pick(1<<20, 4<<20))

		reg := metrics.NewRegistry()
		gov := govern.NewGovernor(govern.Config{
			Budget:         budget,
			QuarantineBase: 400 * time.Millisecond,
			QuarantineMax:  2 * time.Second,
			Metrics:        reg,
			Seed:           opts.Seed,
		})
		defer gov.Close()
		ws := mvcc.NewWatchableStore(core.HubConfig{
			Retention:      opts.pick(256, 512),
			RetentionFloor: opts.pick(32, 64),
			WatcherBuffer:  1 << 14,
			Metrics:        reg,
			Governor:       gov,
		})
		defer ws.Close()

		// One prefix per watcher, so each watcher's range — the governor's
		// quarantine key — is distinct, and a shed aimed at one laggard
		// never collaterally blocks its neighbours' re-admission.
		gate := make(chan struct{})
		sinks := make([]*e17Sink, watchers)
		rws := make([]*core.ResyncWatcher, watchers)
		ranges := make([]keyspace.Range, watchers)
		for i := 0; i < watchers; i++ {
			ranges[i] = keyspace.Prefix(keyspace.Key(fmt.Sprintf("w%02d/", i)))
			sinks[i] = &e17Sink{state: make(map[keyspace.Key]string)}
			if i < slow {
				sinks[i].gate = gate
			}
			rws[i] = core.NewResyncWatcher(ws, ws, ranges[i], sinks[i])
			if err := rws[i].Start(); err != nil {
				return err
			}
			defer rws[i].Stop()
		}

		val := make([]byte, valSize)
		for i := 1; i <= events; i++ {
			w := i % watchers
			ws.Put(keyspace.Key(fmt.Sprintf("w%02d/%04d", w, i%64)), val)
			// Yield between bursts: a real storm arrives over I/O, and on a
			// single-core runner an unbroken Put loop would starve the very
			// relief goroutine the experiment is about.
			if i%64 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
		}
		// Storm over: release the laggards and let the system heal. Shed
		// watchers now consume their explicit resync, retry, get refused by
		// the quarantine with a RetryAfter, back off, and re-admit.
		close(gate)

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
		if err := settle("every consumer to converge after the storm", converged); err != nil {
			return err
		}

		// The governor keeps its own high-water: a poll of the level misses
		// an excursion to Shed that relief ends within microseconds.
		st := gov.Snapshot()
		peak := st.PeakLevel
		var totalResyncs int64
		for _, w := range rws {
			totalResyncs += w.Resyncs()
		}
		snap := reg.Snapshot()

		tbl := metrics.NewTable(fmt.Sprintf(
			"E17 — %d watchers (%d stalled) vs a %d-event storm under a %d-byte budget",
			watchers, slow, events, budget),
			"metric", "value")
		tbl.AddRow("peak pressure level", fmt.Sprintf("%d (%s)", peak, govern.Pressure(peak)))
		tbl.AddRow("relief runs", st.ReliefRuns)
		tbl.AddRow("watchers shed", st.Sheds)
		tbl.AddRow("admissions refused", st.Rejects)
		tbl.AddRow("explicit resync cycles", totalResyncs)
		tbl.AddRow("final used bytes", st.UsedBytes)
		tbl.AddRow("final pressure", st.Pressure)
		tbl.AddRow("hub resyncs total", snap.Counters["core_hub_resyncs_total"])
		tbl.AddNote("ladder order: accelerate eviction -> shed worst watchers -> refuse admission with RetryAfter")
		tbl.AddNote("convergence = every consumer (shed ones included) byte-equal to the store after the storm")
		res.Table = tbl

		res.check("the storm escalated past eviction into shedding",
			peak >= int(govern.Shed) && st.Sheds >= 1,
			"peak level %d, %d sheds", peak, st.Sheds)
		res.check("relief ran before any watcher was touched",
			st.ReliefRuns >= 1, "%d relief runs", st.ReliefRuns)
		res.check("every shed was an explicit resync, not silent loss",
			totalResyncs >= st.Sheds,
			"%d resync cycles for %d sheds", totalResyncs, st.Sheds)
		res.check("a quarantined re-admission was refused with a retry hint",
			st.Rejects >= 1, "%d refusals", st.Rejects)
		res.check("every consumer converged byte-equal after the storm",
			converged(), "%d watchers, %d stalled during the storm", watchers, slow)
		res.check("the governor returned to budget once load subsided",
			st.UsedBytes <= st.BudgetBytes && st.Level < int(govern.Shed),
			"used %d of %d, pressure %s", st.UsedBytes, st.BudgetBytes, st.Pressure)
		return nil
	})
}
