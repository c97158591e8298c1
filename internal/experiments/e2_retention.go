package experiments

import (
	"sync"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/pubsub"
	"unbundle/internal/wal"
	"unbundle/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E2",
		Title:  "Retention GC silently loses unconsumed messages; watch signals resync and converges",
		Anchor: "§3.1",
		Run:    runE2,
	})
}

// runE2 is the paper's central §3.1 scenario: a consumer stalls for longer
// than the retention period (the "data center under maintenance for days"
// incident). Pubsub GCs the backlog and the consumer resumes with no error
// and no signal — its materialized state diverges silently. The watch
// consumer gets an explicit resync, recovers from the store, and converges.
func runE2(opts Options) (*Result, error) {
	e, _ := Get("E2")
	return run(e, opts, func(res *Result) error {
		nKeys := opts.pick(200, 2000)
		preStall := opts.pick(500, 5000) // updates consumed normally
		duringStall := opts.pick(3000, 30000)
		postStall := opts.pick(300, 3000)

		// ---------------- pubsub side ----------------
		clock := clockwork.NewFake()
		b := pubsub.NewBroker(pubsub.BrokerConfig{Clock: clock})
		defer b.Close()
		if err := b.CreateTopic("updates", pubsub.TopicConfig{
			Partitions: 4,
			Retention:  24 * time.Hour,
			Segment:    wal.Config{SegmentMaxRecords: 64},
		}); err != nil {
			return err
		}
		g, err := b.Group("updates", "materializer", pubsub.GroupConfig{StartAtEarliest: true})
		if err != nil {
			return err
		}
		c, err := g.Join("m0")
		if err != nil {
			return err
		}

		// The consumer materializes key→value state from messages.
		psState := map[keyspace.Key]string{}
		psErrors := 0 // consumer-visible error signals
		drain := func() {
			for {
				msg, ok, err := c.Poll()
				if err != nil {
					psErrors++
					return
				}
				if !ok {
					return
				}
				psState[msg.Key] = string(msg.Value)
				c.Ack(msg)
			}
		}

		// Truth: the producer's latest value per key.
		truth := map[keyspace.Key]string{}
		stream := workload.NewUpdateStream(workload.NewZipfKeys(opts.Seed, nKeys, 1.3))
		publish := func(n int) error {
			for i := 0; i < n; i++ {
				k, v := stream.Next()
				truth[k] = string(v)
				if _, _, err := b.Publish("updates", k, v); err != nil {
					return err
				}
			}
			return nil
		}

		if err := publish(preStall); err != nil {
			return err
		}
		drain()

		// The consumer's datacenter goes dark for three days; the producer
		// keeps publishing; retention is 24h.
		if err := publish(duringStall); err != nil {
			return err
		}
		clock.Advance(72 * time.Hour)
		b.RunGC()
		if err := publish(postStall); err != nil {
			return err
		}
		drain() // consumer comes back: no error, just... less history

		psDivergent := 0
		for k, v := range truth {
			if psState[k] != v {
				psDivergent++
			}
		}
		gs := g.Stats()
		ts, _ := b.Stats("updates")

		// ---------------- watch side ----------------
		store := mvcc.NewStore()
		hub := core.NewHub(core.HubConfig{Retention: 256, WatcherBuffer: 64})
		defer hub.Close()
		detach := store.AttachCDC(keyspace.Full(), hub)
		defer detach()

		wState := map[keyspace.Key]string{}
		var wMu sync.Mutex
		gate := make(chan struct{}) // closed = consumer unblocked
		consumer := &gatedConsumer{state: wState, mu: &wMu, gate: gate}
		rw := core.NewResyncWatcher(store, hub, keyspace.Full(), consumer)

		stream2 := workload.NewUpdateStream(workload.NewZipfKeys(opts.Seed, nKeys, 1.3))
		truth2 := map[keyspace.Key]string{}
		put := func(n int) {
			for i := 0; i < n; i++ {
				k, v := stream2.Next()
				truth2[k] = string(v)
				store.Put(k, v)
			}
		}
		put(preStall)
		if err := rw.Start(); err != nil {
			return err
		}
		// Stall: the consumer's callbacks block on the gate, the hub's
		// bounded buffer overflows, the watcher is lagged out.
		put(duringStall)
		close(gate) // maintenance over: consumer unblocks, resync recovers it
		put(postStall)

		if err := settle("the watch state to converge", func() bool {
			wMu.Lock()
			defer wMu.Unlock()
			for k, v := range truth2 {
				if wState[k] != v {
					return false
				}
			}
			return true
		}); err != nil {
			return err
		}
		wMu.Lock()
		wDivergent := 0
		for k, v := range truth2 {
			if wState[k] != v {
				wDivergent++
			}
		}
		wMu.Unlock()

		tbl := metrics.NewTable("E2 — three-day consumer stall vs 24h retention",
			"system", "published", "destroyed", "skipped under consumer", "consumer-visible signal", "final divergent keys")
		tbl.AddRow("pubsub", preStall+duringStall+postStall, ts.GCedRecords,
			gs.SkippedMessages, psErrors, psDivergent)
		tbl.AddRow("watch", preStall+duringStall+postStall, "(soft state only)",
			"-", int(rw.Resyncs()), wDivergent)
		tbl.AddNote("'destroyed' is broker-side knowledge (log GC); the pubsub consumer API surfaced zero errors")
		tbl.AddNote("the watch consumer was told to resync and rebuilt exact state from the store")
		res.Table = tbl

		res.check("pubsub destroyed unconsumed messages", ts.GCedRecords > 0, "GCed %d records", ts.GCedRecords)
		res.check("pubsub consumer silently skipped them", gs.SkippedMessages > 0 && psErrors == 0,
			"skipped %d with %d visible errors", gs.SkippedMessages, psErrors)
		res.check("pubsub state diverged", psDivergent > 0, "%d of %d keys stale", psDivergent, len(truth))
		res.check("watch consumer was explicitly resynced", rw.Resyncs() >= 1, "%d resyncs", rw.Resyncs())
		res.check("watch state converged exactly", wDivergent == 0, "%d divergent keys", wDivergent)
		return nil
	})
}

// gatedConsumer materializes watched state but blocks event application
// until its gate opens — the stalled consumer.
type gatedConsumer struct {
	mu    *sync.Mutex
	state map[keyspace.Key]string
	gate  chan struct{}
}

func (g *gatedConsumer) ResetSnapshot(r keyspace.Range, entries []core.Entry, at core.Version) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k := range g.state {
		if r.Contains(k) {
			delete(g.state, k)
		}
	}
	for _, e := range entries {
		g.state[e.Key] = string(e.Value)
	}
}

func (g *gatedConsumer) ApplyChange(ev core.ChangeEvent) {
	<-g.gate // stalled until maintenance ends
	g.mu.Lock()
	defer g.mu.Unlock()
	switch ev.Mut.Op {
	case core.OpPut:
		g.state[ev.Key] = string(ev.Mut.Value)
	case core.OpDelete:
		delete(g.state, ev.Key)
	}
}

func (g *gatedConsumer) AdvanceFrontier(core.ProgressEvent) {}
