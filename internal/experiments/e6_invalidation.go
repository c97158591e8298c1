package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"unbundle/internal/cache"
	"unbundle/internal/clockwork"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/sharder"
	"unbundle/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E6",
		Title:  "Cache invalidation under auto-sharding: the Figure 2 race, leases, fanout, watch",
		Anchor: "Figure 2, §3.2.2 vs §4.3",
		Run:    runE6,
	})
}

// runE6 runs a continuous cache workload — updates, reads, and auto-sharder
// range moves — through four invalidation topologies and scores staleness
// with an omniscient oracle. The pubsub-routed cluster accumulates
// permanently stale entries whenever a move races an update (Figure 2);
// leases close the race at an availability cost; free-consumer fanout stays
// correct but pays the full feed per pod; the watch cluster is correct with
// range-scoped delivery and no invalidation topic at all.
func runE6(opts Options) (*Result, error) {
	e, _ := Get("E6")
	return run(e, opts, func(res *Result) error {
		nKeys := opts.pick(400, 4000)
		steps := opts.pick(2000, 12000)
		movePeriod := 25        // a sharder move every movePeriod steps
		moveWidth := nKeys / 40 // moved-range width scales with the keyspace
		swept := nKeys + 1      // the quiescence sweep adds the pubsub arms' raced key
		pods := []sharder.Pod{"p0", "p1", "p2", "p3"}

		type outcome struct {
			name        string
			staleReads  int64
			reads       int64
			permStale   int
			checked     int
			staleAfter  int // stale reads when every key is re-read after quiescence
			unavailable int64
			podMsgs     int64
			resyncs     int64
		}
		var outcomes []outcome

		runPubSub := func(mode cache.Mode, ttl time.Duration, label string) error {
			clock := clockwork.NewFake()
			cfg := cache.PubSubConfig{
				Clock:         clock,
				Mode:          mode,
				Pods:          pods,
				Coalesce:      true,
				RouterLag:     500 * time.Millisecond,
				LeaseDuration: 2 * time.Second,
				TTL:           ttl,
				InitialShards: 16,
			}
			c, err := cache.NewPubSubCluster(cfg)
			if err != nil {
				return err
			}
			defer c.Close()
			oracle := cache.NewOracle(c.Store())
			rng := rand.New(rand.NewSource(opts.Seed))
			stream := workload.NewUpdateStream(workload.NewZipfKeys(opts.Seed, nKeys, 1.2))

			// Router bootstrap.
			clock.Advance(time.Second)
			settle(func() bool { return c.RouterGeneration() >= 1 })

			// Figure 2 by construction, on the key just past the workload's
			// keyspace, which the workload below never writes, reads or
			// moves: the sharder moves the key to a new owner, a read caches
			// its value there, and the key is updated and pumped one clock
			// step later — while the router, which learns of the move only
			// after RouterLag, still routes by the old table.
			race := keyspace.NumericKey(nKeys)
			if err := c.Update(race, workload.Value(race, 1)); err != nil {
				return err
			}
			clock.Advance(20 * time.Millisecond)
			c.Pump()
			to := pods[(slices.Index(pods, c.Sharder().Owner(race))+1)%len(pods)]
			if err := c.Sharder().MoveRange(keyspace.NumericRange(nKeys, nKeys+1), to); err != nil {
				return err
			}
			if _, err := c.Read(race); err != nil {
				return err
			}
			if err := c.Update(race, workload.Value(race, 2)); err != nil {
				return err
			}
			clock.Advance(20 * time.Millisecond)
			c.Pump()

			var recent []keyspace.Key
			for i := 0; i < steps; i++ {
				// 30% of writes are read-modify-write on a recently read key
				// (the dominant pattern in cached workloads); the rest follow
				// the Zipf update stream.
				var k keyspace.Key
				var v []byte
				if len(recent) > 0 && rng.Float64() < 0.3 {
					k, v = stream.NextFor(recent[rng.Intn(len(recent))])
				} else {
					k, v = stream.Next()
				}
				if err := c.Update(k, v); err != nil {
					return err
				}
				for j := 0; j < 2; j++ {
					rk := keyspace.NumericKey(rng.Intn(nKeys))
					r, err := c.Read(rk)
					if err != nil {
						return err
					}
					if !r.Unavailable {
						oracle.ScoreRead(rk, r.Value)
					}
					recent = append(recent, rk)
					if len(recent) > 32 {
						recent = recent[1:]
					}
				}
				if i%movePeriod == 0 {
					lo := rng.Intn(nKeys - moveWidth)
					target := pods[rng.Intn(len(pods))]
					_ = c.Sharder().MoveRange(keyspace.NumericRange(lo, lo+moveWidth), target)
				}
				clock.Advance(20 * time.Millisecond)
				c.Pump()
				if i%16 == 0 {
					time.Sleep(50 * time.Microsecond) // realistic pacing, matches the watch loop
				}
			}
			// Settle: let the router catch up and deliver everything.
			clock.Advance(5 * time.Second)
			settle(func() bool { return c.RouterGeneration() >= c.Sharder().Stats().Generation })
			for i := 0; i < 10; i++ {
				clock.Advance(time.Second)
				c.Pump()
			}
			stale, checked := oracle.SweepPubSub(c)
			st := oracle.Stats()
			cst := c.Stats()
			// Post-quiescence sweep read: every key, the raced one included,
			// once. Any staleness now is permanent — no pending invalidation
			// can fix it.
			staleAfter := 0
			for key := 0; key < swept; key++ {
				rk := keyspace.NumericKey(key)
				stale, err := staleAfterQuiescence(rk, func() ([]byte, error) {
					r, err := c.Read(rk)
					return r.Value, err
				}, c.Store())
				if err != nil {
					return err
				}
				if stale {
					staleAfter++
				}
			}
			outcomes = append(outcomes, outcome{
				name:        label,
				staleReads:  st.StaleReads,
				reads:       st.Reads,
				permStale:   stale,
				checked:     checked,
				staleAfter:  staleAfter,
				unavailable: cst.Unavailable,
				podMsgs:     cst.PodMessages,
			})
			return nil
		}

		if err := runPubSub(cache.ModeRouted, 0, "pubsub-routed (Fig 2)"); err != nil {
			return err
		}
		if err := runPubSub(cache.ModeLease, 0, "pubsub-lease"); err != nil {
			return err
		}
		if err := runPubSub(cache.ModeFanout, 0, "pubsub-fanout"); err != nil {
			return err
		}

		// ---------------- watch cluster ----------------
		wc := cache.NewWatchCluster(cache.WatchConfig{
			Pods:          pods,
			InitialShards: 16,
			Coalesce:      true,
		})
		defer wc.Close()
		oracle := cache.NewOracle(wc.Store())
		rng := rand.New(rand.NewSource(opts.Seed))
		stream := workload.NewUpdateStream(workload.NewZipfKeys(opts.Seed, nKeys, 1.2))
		// Wait for initial coverage.
		settle(func() bool {
			for _, p := range wc.Pods() {
				if len(p.Knowledge()) == 0 {
					return false
				}
			}
			return true
		})
		var wReads, wStale int64
		var recent []keyspace.Key
		for i := 0; i < steps; i++ {
			var k keyspace.Key
			var v []byte
			if len(recent) > 0 && rng.Float64() < 0.3 {
				k, v = stream.NextFor(recent[rng.Intn(len(recent))])
			} else {
				k, v = stream.Next()
			}
			wc.Update(k, v)
			for j := 0; j < 2; j++ {
				rk := keyspace.NumericKey(rng.Intn(nKeys))
				r, err := wc.Read(rk)
				if err != nil {
					return err
				}
				wReads++
				if !oracle.ScoreRead(rk, r.Value) {
					wStale++
				}
				recent = append(recent, rk)
				if len(recent) > 32 {
					recent = recent[1:]
				}
			}
			if i%movePeriod == 0 {
				lo := rng.Intn(nKeys - moveWidth)
				target := pods[rng.Intn(len(pods))]
				_ = wc.Sharder().MoveRange(keyspace.NumericRange(lo, lo+moveWidth), target)
			}
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond) // let the CDC→hub→pod pipeline run
			}
		}
		// Settle: watchers converge to the store.
		storeV := wc.Store().CurrentVersion()
		settle(func() bool {
			stale, _ := oracle.SweepWatch(wc)
			return stale == 0 && wc.Store().CurrentVersion() == storeV
		})
		wPermStale, wChecked := oracle.SweepWatch(wc)
		var wResyncs int64
		for _, p := range wc.Pods() {
			wResyncs += p.Resyncs()
		}
		wStaleAfter := 0
		for key := 0; key < swept; key++ {
			rk := keyspace.NumericKey(key)
			stale, err := staleAfterQuiescence(rk, func() ([]byte, error) {
				r, err := wc.Read(rk)
				return r.Value, err
			}, wc.Store())
			if err != nil {
				return err
			}
			if stale {
				wStaleAfter++
			}
		}
		outcomes = append(outcomes, outcome{
			name:       "watch",
			staleReads: wStale,
			reads:      wReads,
			permStale:  wPermStale,
			checked:    wChecked,
			staleAfter: wStaleAfter,
			resyncs:    wResyncs,
		})

		tbl := metrics.NewTable("E6 — invalidation under dynamic resharding",
			"topology", "reads", "stale reads", "permanently stale entries", "stale after quiescence", "unavailable reads", "per-pod feed msgs", "resyncs")
		for _, o := range outcomes {
			tbl.AddRow(o.name, o.reads, o.staleReads, fmt.Sprintf("%d/%d", o.permStale, o.checked),
				fmt.Sprintf("%d/%d", o.staleAfter, swept), o.unavailable, o.podMsgs, o.resyncs)
		}
		tbl.AddNote("'permanently stale' = cache entries still wrong after full quiescence: no invalidation will ever fix them")
		res.Table = tbl

		routed := outcomes[0]
		lease := outcomes[1]
		fanout := outcomes[2]
		watch := outcomes[3]
		res.check("routed pubsub leaves permanently stale entries (Figure 2)",
			routed.permStale > 0, "%d/%d entries", routed.permStale, routed.checked)
		res.check("leases close the race", lease.permStale == 0, "%d stale", lease.permStale)
		res.check("…but cost availability", lease.unavailable > routed.unavailable,
			"lease %d vs routed %d unavailable reads", lease.unavailable, routed.unavailable)
		res.check("fanout avoids permanent staleness", fanout.permStale == 0, "%d stale", fanout.permStale)
		res.check("…but every pod pays for the whole feed",
			fanout.podMsgs >= int64(steps*len(pods)), "%d pod-messages for %d updates", fanout.podMsgs, steps)
		res.check("watch has no permanently stale entries", watch.permStale == 0,
			"%d/%d entries", watch.permStale, watch.checked)
		// Any asynchronous cache shows propagation-window staleness on an
		// instantaneous oracle during the run; the end-to-end claim is about
		// what remains once everything quiesces: watch staleness is transient
		// (the event stream cures it), routed pubsub's is permanent.
		res.check("after quiescence, watch serves zero stale reads",
			watch.staleAfter == 0, "%d of %d keys", watch.staleAfter, swept)
		res.check("after quiescence, routed pubsub still serves stale reads",
			routed.staleAfter > 0, "%d of %d keys", routed.staleAfter, swept)
		return nil
	})
}

// staleAfterQuiescence re-reads a key, allowing a short grace for in-flight
// deliveries to land; only staleness that survives the grace counts.
// Permanent staleness — the Figure 2 end state — survives any grace.
func staleAfterQuiescence(k keyspace.Key, read func() ([]byte, error), store *mvcc.Store) (bool, error) {
	deadline := time.Now().Add(250 * time.Millisecond)
	for {
		v, err := read()
		if err != nil {
			return false, err
		}
		want, _, _, _ := store.Get(k, 0)
		if string(v) == string(want) {
			return false, nil
		}
		if time.Now().After(deadline) {
			return true, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}
