package experiments

import (
	"sync"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/pubsub"
	"unbundle/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E10",
		Title:  "Efficiency: hard-state write amplification and range-scoped delivery",
		Anchor: "§4.4",
		Run:    runE10,
	})
}

// runE10 quantifies the §4.4 efficiency claims. U updates flow to W
// consumers, each interested in 1/W of the keyspace.
//
//   - Hard state: the pubsub pipeline writes every update twice — once to
//     producer storage, once to the broker's durable log (≥2× write
//     amplification). The watch pipeline writes it once; the hub holds only
//     a bounded soft-state window.
//   - Delivery: pubsub partitions don't align with consumer interests, so
//     range-sharded consumers must subscribe to everything (free consumers)
//     and filter; each consumer pays for all U messages. Range watches
//     deliver each consumer only its U/W share.
func runE10(opts Options) (*Result, error) {
	e, _ := Get("E10")
	return run(e, opts, func(res *Result) error {
		nKeys := 8192
		updates := opts.pick(5000, 50000)
		consumers := 8

		// ---------------- pubsub pipeline ----------------
		store := mvcc.NewStore()
		b := pubsub.NewBroker(pubsub.BrokerConfig{})
		defer b.Close()
		if err := b.CreateTopic("feed", pubsub.TopicConfig{Partitions: 8}); err != nil {
			return err
		}
		stream := workload.NewUpdateStream(workload.NewZipfKeys(opts.Seed, nKeys, 1.2))
		for i := 0; i < updates; i++ {
			k, v := stream.Next()
			store.Put(k, v)
			if _, _, err := b.Publish("feed", k, v); err != nil {
				return err
			}
		}
		// Range-sharded consumers must subscribe to the entire topic and
		// filter (§3.2.2's free-consumer fallback).
		shards := keyspace.EvenSplit(nKeys, consumers)
		var psReceived, psUseful int64
		for ci := 0; ci < consumers; ci++ {
			for p := 0; p < 8; p++ {
				fc, err := b.NewFreeConsumer("feed", p, pubsub.FromEarliest)
				if err != nil {
					return err
				}
				for {
					msg, ok := fc.Poll()
					if !ok {
						break
					}
					psReceived++
					if shards[ci].Contains(msg.Key) {
						psUseful++
					}
				}
			}
		}
		psStoreBytes := store.Stats().BytesWritten
		ts, _ := b.Stats("feed")
		psHardState := psStoreBytes + ts.BytesAppended

		// ---------------- watch pipeline ----------------
		store2 := mvcc.NewStore()
		// Size watcher queues past every event so this throughput
		// measurement never triggers lag-out resyncs (those are E2's subject,
		// not E10's).
		hub := core.NewHub(core.HubConfig{Retention: 4096, WatcherBuffer: 4 * updates})
		defer hub.Close()
		detach := store2.AttachCDC(keyspace.Full(), hub)
		defer detach()

		var mu sync.Mutex
		var wReceived int64
		var wg sync.WaitGroup
		wg.Add(consumers)
		for _, shard := range shards {
			done := false
			cancel, err := hub.Watch(shard, core.NoVersion, core.Funcs{
				Event: func(ev core.ChangeEvent) {
					mu.Lock()
					wReceived++
					mu.Unlock()
				},
				Progress: func(p core.ProgressEvent) {
					mu.Lock()
					if !done && p.Version >= core.Version(updates) {
						done = true
						wg.Done()
					}
					mu.Unlock()
				},
			})
			if err != nil {
				return err
			}
			defer cancel()
		}
		stream2 := workload.NewUpdateStream(workload.NewZipfKeys(opts.Seed, nKeys, 1.2))
		for i := 0; i < updates; i++ {
			k, v := stream2.Next()
			store2.Put(k, v)
		}
		store2.EmitProgress(keyspace.Full())
		wg.Wait()
		wHardState := store2.Stats().BytesWritten
		hubStats := hub.Stats()
		mu.Lock()
		wRecv := wReceived
		mu.Unlock()

		amplification := float64(psHardState) / float64(psStoreBytes)
		tbl := metrics.NewTable("E10 — hard state and delivery cost (U updates, 8 range-sharded consumers)",
			"pipeline", "hard-state bytes", "write amp", "msgs received (all consumers)", "useful", "soft state")
		tbl.AddRow("store + pubsub log + free consumers", psHardState,
			amplification, psReceived, psUseful, "-")
		tbl.AddRow("store + watch hub + range watches", wHardState,
			1.0, wRecv, wRecv, hubStats.RetainedEvents)
		tbl.AddNote("pubsub consumers each subscribe to the full feed and discard ~(W-1)/W of it; range watches deliver exactly the owned share")
		res.Table = tbl

		// The store's accounting includes per-version metadata overhead the
		// log doesn't have, so the payload-doubling lands a little under 2×.
		res.check("pubsub adds a second hard-state log (≈2× writes)",
			amplification > 1.5 && ts.BytesAppended > 0, "amplification %.2fx (log wrote %d bytes)", amplification, ts.BytesAppended)
		res.check("watch hard state is the store alone",
			wHardState == store2.Stats().BytesWritten, "%d bytes", wHardState)
		res.check("free consumers pay W× delivery",
			psReceived == int64(consumers*updates), "received %d for %d updates", psReceived, updates)
		res.check("range watches deliver exactly the useful share",
			wRecv == int64(updates), "received %d for %d updates", wRecv, updates)
		res.check("hub soft state is bounded",
			hubStats.RetainedEvents <= 4096, "%d retained", hubStats.RetainedEvents)
		return nil
	})
}
