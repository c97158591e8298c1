package experiments

import (
	"strconv"
	"sync"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/ingeststore"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/pubsub"
	"unbundle/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E7",
		Title:  "Event ingestion and fanout: head-of-line blocking vs bounded, resyncable lag",
		Anchor: "§3.2.3 vs §4.3",
		Run:    runE7,
	})
}

// runE7 runs an ingestion pipeline with one slow consumer among fast ones.
//
// Pubsub group: the slow member's partition backs up without bound, and
// every key hashed to that partition — healthy producers included — waits
// behind the queue (head-of-line blocking). The other members' keys are
// fine; nothing tells anyone the slow partition is rotting.
//
// Watch model: the slow consumer owns a key range; its inability to keep up
// overflows its bounded buffer and surfaces as resync signals, while its
// recovery path (re-query the ingestion store) costs state-size, not
// backlog-size. Other ranges never queue behind it.
func runE7(opts Options) (*Result, error) {
	e, _ := Get("E7")
	return run(e, opts, func(res *Result) error {
		nSeries := 64
		events := opts.pick(4000, 40000)
		const slowFactor = 10 // slow consumer: 1 event per 10 ticks
		publishTicks := events / 4
		totalTicks := publishTicks + events/4 // bounded drain budget afterwards

		// ---------------- pubsub group ----------------
		b := pubsub.NewBroker(pubsub.BrokerConfig{})
		defer b.Close()
		if err := b.CreateTopic("ingest", pubsub.TopicConfig{Partitions: 4}); err != nil {
			return err
		}
		g, err := b.Group("ingest", "fanout", pubsub.GroupConfig{StartAtEarliest: true})
		if err != nil {
			return err
		}
		members := []string{"fast0", "fast1", "fast2", "slow"}
		var consumers []*pubsub.Consumer
		for _, m := range members {
			c, err := g.Join(m)
			if err != nil {
				return err
			}
			consumers = append(consumers, c)
		}
		// Which partition does the slow member own? Keys hashing there are
		// the victims.
		slowParts := map[int]bool{}
		for part, owner := range g.Assignment() {
			if owner == "slow" {
				slowParts[part] = true
			}
		}

		keys := workload.NewUniformKeys(opts.Seed, nSeries)
		fastLat := metrics.NewHistogram()
		victimLat := metrics.NewHistogram()
		busyUntil := make([]int64, len(consumers))
		published := 0
		for tick := int64(0); tick < int64(totalTicks); tick++ {
			if tick < int64(publishTicks) {
				for i := 0; i < 4; i++ {
					k := keys.Pick()
					if _, _, err := b.Publish("ingest", k, []byte(strconv.FormatInt(tick, 10))); err != nil {
						return err
					}
					published++
				}
			}
			for ci, c := range consumers {
				if busyUntil[ci] > tick {
					continue
				}
				msg, ok, err := c.Poll()
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				cost := int64(1)
				if members[ci] == "slow" {
					cost = slowFactor
				}
				busyUntil[ci] = tick + cost
				lat := tick + cost - atoi64(msg.Value)
				if slowParts[msg.Partition] {
					victimLat.Observe(lat)
				} else {
					fastLat.Observe(lat)
				}
				c.Ack(msg)
			}
		}
		psBacklog := g.Lag()
		psFast := fastLat.Snapshot()
		psVictim := victimLat.Snapshot()

		// ---------------- watch over an ingestion store ----------------
		st := ingeststore.NewWatchable(ingeststore.Config{}, core.HubConfig{
			Retention:     events,
			WatcherBuffer: 8 * events, // fast watchers must never lag in this run
		})
		defer st.Close()

		var mu sync.Mutex
		wLat := metrics.NewHistogram()
		fastDelivered := 0
		var appended int64

		shards := keyspace.EvenSplit(nSeries, 4)
		// Three fast watchers.
		for _, shard := range shards[:3] {
			cancel, err := st.Watch(shard, core.NoVersion, core.Funcs{
				Event: func(ev core.ChangeEvent) {
					mu.Lock()
					fastDelivered++
					// Latency in "append ticks": how far production ran ahead
					// of this delivery.
					wLat.Observe((appended - atoi64(ev.Mut.Value)) / 4)
					mu.Unlock()
				},
			})
			if err != nil {
				return err
			}
			defer cancel()
		}
		// The slow watcher: a small personal buffer and a blocking callback.
		// The hub lags it out and resyncs it rather than queueing unboundedly.
		slowHub := core.NewHub(core.HubConfig{Retention: 256, WatcherBuffer: 128})
		defer slowHub.Close()
		detachSlow := st.AttachIngester(slowHub)
		defer detachSlow()
		slowResyncs := 0
		slowRecovered := 0
		cancelSlow, err := slowHub.Watch(shards[3], core.NoVersion, core.Funcs{
			Event: func(core.ChangeEvent) {
				time.Sleep(50 * time.Microsecond) // can't keep up
			},
			Resync: func(r core.ResyncEvent) {
				// Recovery reads current state from the ingestion store —
				// bounded work, explicit signal.
				evs := st.Query(r.Range, 0, 0)
				mu.Lock()
				slowResyncs++
				slowRecovered = len(evs)
				mu.Unlock()
			},
		})
		if err != nil {
			return err
		}
		defer cancelSlow()

		keys2 := workload.NewUniformKeys(opts.Seed, nSeries)
		for i := 0; i < events; i++ {
			mu.Lock()
			appended = int64(i)
			mu.Unlock()
			st.Append(keys2.Pick(), []byte(strconv.FormatInt(int64(i), 10)))
		}
		if err := settle("fast delivery and the slow watcher's resync", func() bool {
			mu.Lock()
			defer mu.Unlock()
			// The slow watcher's dispatcher may be mid-batch (each event
			// sleeps); wait for its resync too, not just fast delivery.
			return fastDelivered >= events*3/4-nSeries && slowResyncs >= 1
		}); err != nil {
			return err
		}
		mu.Lock()
		wSnap := wLat.Snapshot()
		fd, sr, rec := fastDelivered, slowResyncs, slowRecovered
		mu.Unlock()

		tbl := metrics.NewTable("E7 — one slow consumer in the ingestion fanout",
			"system", "events", "fast-key p99", "co-partitioned-key p99", "slow backlog at end", "slow-lag signal")
		tbl.AddRow("pubsub group", published, psFast.P99, psVictim.P99, psBacklog, "none")
		tbl.AddRow("watch ranges", events, wSnap.P99, "n/a (range-isolated)", "bounded (soft state)",
			strconv.Itoa(sr)+" resyncs")
		tbl.AddNote("pubsub latencies in virtual ticks; keys sharing the slow member's partition are the victims")
		tbl.AddNote("the slow watcher recovered via store query (%d retained events), not by draining a log", rec)
		res.Table = tbl

		res.check("pubsub slow partition backlog persists",
			psBacklog > int64(events)/20, "lag %d after %d events", psBacklog, published)
		res.check("co-partitioned keys suffer head-of-line blocking",
			psVictim.P99 > 10*psFast.P99, "victim p99 %d vs fast p99 %d", psVictim.P99, psFast.P99)
		res.check("watch fast ranges fully delivered, unaffected by the slow range",
			fd >= events*3/4-nSeries, "delivered %d of ~%d", fd, events*3/4)
		res.check("watch surfaced the slow consumer's lag explicitly",
			sr >= 1, "%d resyncs", sr)
		return nil
	})
}

func atoi64(b []byte) int64 {
	v, _ := strconv.ParseInt(string(b), 10, 64)
	return v
}
