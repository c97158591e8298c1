package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/workqueue"
)

func init() {
	register(Experiment{
		ID:     "E8",
		Title:  "Work queueing: affinitized dynamic sharding, priority, coalescing, and reconciler correctness",
		Anchor: "§3.2.4 vs §4.3",
		Run:    runE8,
	})
}

// runE8 compares the two worker pools on one workload: entities spread over
// the key domain, per-entity warm state, a fraction of slow tasks, and
// worker churn — then runs the VM-provisioning coordinator scenario under
// chaos. Virtual time advances only while some worker has visible work or is
// mid-task, so asynchronous delivery pipelines do not distort tick-denoted
// latencies.
func runE8(opts Options) (*Result, error) {
	e, _ := Get("E8")
	return run(e, opts, func(res *Result) error {
		entities := opts.pick(64, 256)
		rounds := opts.pick(6, 16)
		const shards = 16
		slowEvery := 9 // 1 in 9 tasks is slow
		const slowCost = 80
		// Spread entities across the sharder's whole numeric domain so range
		// assignment and entity population align.
		stride := shards * 1000 / entities

		type outcome struct {
			name      string
			cheapP99  int64
			affinity  float64
			completed int64
			coalesced int64
			ticks     int64
		}
		entityKey := func(e int) keyspace.Key { return keyspace.NumericKey(e * stride) }

		runPool := func(p workqueue.Pool, name string) (outcome, error) {
			defer p.Close()
			for i := 0; i < 4; i++ {
				if err := p.AddWorker(fmt.Sprintf("w%d", i)); err != nil {
					return outcome{}, err
				}
			}
			rng := rand.New(rand.NewSource(opts.Seed))
			var tick int64
			drainTo := func(seq int) error {
				deadline := time.Now().Add(30 * time.Second)
				for time.Now().Before(deadline) {
					st := p.Stats()
					if st.Outstanding == 0 && st.Busy == 0 {
						done := p.Done()
						ok := true
						for e := 0; e < entities; e++ {
							if done[entityKey(e)] < seq {
								ok = false
								break
							}
						}
						if ok {
							return nil
						}
						// Work exists but isn't visible yet (delivery in
						// flight): virtual time freezes while the network
						// runs.
						time.Sleep(100 * time.Microsecond)
						continue
					}
					p.Tick()
					tick++
				}
				return fmt.Errorf("%s: drain stalled", name)
			}
			// Warm-up round establishes watchers and warm state. Its tasks are
			// marked slow-class so the cold-start stampede stays out of the
			// cheap-task latency statistics both pools report.
			for e := 0; e < entities; e++ {
				p.Submit(workqueue.Work{Entity: entityKey(e), Seq: 1, Cost: slowCost, Submit: tick})
			}
			time.Sleep(2 * time.Millisecond) // deliveries land before time moves
			if err := drainTo(1); err != nil {
				return outcome{}, err
			}
			// Main rounds: burst submissions with slow tasks mixed in;
			// mid-way, churn.
			taskNo := 0
			for r := 2; r <= rounds; r++ {
				if r == rounds/2 {
					if err := p.AddWorker("w-late"); err != nil {
						return outcome{}, err
					}
					if err := p.RemoveWorker("w1"); err != nil {
						return outcome{}, err
					}
					// Let the handoff establish (snapshots, rebalance
					// notifications) before the next burst; rebalance
					// settle time is not what this experiment measures.
					time.Sleep(10 * time.Millisecond)
				}
				for e := 0; e < entities; e++ {
					cost := 1 + rng.Intn(3)
					taskNo++
					if taskNo%slowEvery == 0 {
						cost = slowCost
					}
					p.Submit(workqueue.Work{Entity: entityKey(e), Seq: r, Cost: cost, Submit: tick})
				}
				time.Sleep(2 * time.Millisecond) // deliveries land before time moves
				if err := drainTo(r); err != nil {
					return outcome{}, err
				}
			}
			st := p.Stats()
			aff := float64(st.WarmHits) / float64(st.WarmHits+st.WarmMisses)
			return outcome{
				name:      name,
				cheapP99:  st.CheapLat.P99,
				affinity:  aff,
				completed: st.Completed,
				coalesced: st.Coalesced,
				ticks:     tick,
			}, nil
		}

		ps, err := workqueue.NewPubSubPool(shards, slowCost)
		if err != nil {
			return err
		}
		psOut, err := runPool(ps, "pubsub pool")
		if err != nil {
			return err
		}
		wp := workqueue.NewWatchPool(shards, slowCost)
		wpOut, err := runPool(wp, "watch pool")
		if err != nil {
			return err
		}

		// ---------------- coordinator correctness under chaos ----------------
		fleet := workqueue.NewFleet()
		ec, err := workqueue.NewEventCoordinator(fleet)
		if err != nil {
			return err
		}
		defer ec.Close()
		nWorkloads := opts.pick(10, 40)
		for i := 0; i < nWorkloads; i++ {
			fleet.SetDesired(fmt.Sprintf("wl%d", i), 3)
		}
		ec.Step(10 * nWorkloads)
		crashes := nWorkloads / 2
		for i := 0; i < crashes; i++ {
			fleet.CrashVM(fmt.Sprintf("wl%d", i))
		}
		ec.Step(10 * nWorkloads) // nothing to process: crashes emit no events
		eventDivergence := fleet.Divergence()

		wc, err := workqueue.NewWatchCoordinator(fleet)
		if err != nil {
			return err
		}
		defer wc.Close()
		if err := settle("the watch coordinator to reconcile every workload", func() bool {
			wc.Step(nWorkloads)
			return fleet.Divergence() == 0
		}); err != nil {
			return err
		}
		watchDivergence := fleet.Divergence()

		tbl := metrics.NewTable("E8 — work queueing and the reconciler",
			"system", "cheap-task p99 (ticks)", "affinity hit rate", "completed", "coalesced", "total ticks")
		tbl.AddRow(psOut.name, psOut.cheapP99, psOut.affinity, psOut.completed, "-", psOut.ticks)
		tbl.AddRow(wpOut.name, wpOut.cheapP99, wpOut.affinity, wpOut.completed, wpOut.coalesced, wpOut.ticks)
		tbl.AddRow("event coordinator", "-", "-", "-", "-", fmt.Sprintf("diverged: %d workloads", eventDivergence))
		tbl.AddRow("watch coordinator", "-", "-", "-", "-", fmt.Sprintf("diverged: %d workloads", watchDivergence))
		tbl.AddNote("same entities, same slow-task mix, same churn (one worker joins, one leaves mid-run)")
		res.Table = tbl

		res.check("watch pool shields cheap tasks from slow ones",
			wpOut.cheapP99*2 < psOut.cheapP99, "watch p99 %d vs pubsub p99 %d", wpOut.cheapP99, psOut.cheapP99)
		res.check("watch pool keeps affinity through churn",
			wpOut.affinity > psOut.affinity, "watch %.2f vs pubsub %.2f", wpOut.affinity, psOut.affinity)
		res.check("both pools complete all rounds",
			psOut.completed > 0 && wpOut.completed > 0, "pubsub %d, watch %d", psOut.completed, wpOut.completed)
		res.check("event coordinator is blind to crashes",
			eventDivergence > 0, "%d workloads still diverged", eventDivergence)
		res.check("watch coordinator reconciles the same chaos to zero",
			watchDivergence == 0, "%d diverged", watchDivergence)
		return nil
	})
}
