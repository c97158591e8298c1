package experiments

import (
	"fmt"
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
		ID:     "E3",
		Title:  "Compaction defers but does not eliminate loss, and never tells subscribers",
		Anchor: "§3.1",
		Run:    runE3,
	})
}

// runE3 exercises topic compaction: a subscriber that falls behind the dirty
// window finds that intermediate versions of each key have vanished — with
// no notification that compaction happened (§3.1: "without notification,
// subscribers do not discover that unseen events have been compacted"). The
// watch counterpart makes the same information loss explicit: the lagging
// watcher receives a resync signal and knowingly rebuilds from a snapshot.
func runE3(opts Options) (*Result, error) {
	e, _ := Get("E3")
	return run(e, opts, func(res *Result) error {
		nKeys := opts.pick(20, 100)
		versionsPerKey := opts.pick(40, 200)
		total := nKeys * versionsPerKey

		// ---------------- pubsub side: compacted topic ----------------
		clock := clockwork.NewFake()
		b := pubsub.NewBroker(pubsub.BrokerConfig{Clock: clock})
		defer b.Close()
		if err := b.CreateTopic("compacted", pubsub.TopicConfig{
			Partitions:    2,
			Compacted:     true,
			CompactionLag: time.Hour,
			Segment:       wal.Config{SegmentMaxRecords: 32},
		}); err != nil {
			return err
		}
		// An application that needs every version (e.g. an audit trail).
		stream := workload.NewUpdateStream(workload.NewUniformKeys(opts.Seed, nKeys))
		for i := 0; i < total; i++ {
			k, v := stream.Next()
			if _, _, err := b.Publish("compacted", k, v); err != nil {
				return err
			}
		}
		// The subscriber is late: compaction runs before it reads anything.
		clock.Advance(2 * time.Hour)
		b.RunGC()

		g, err := b.Group("compacted", "late-auditor", pubsub.GroupConfig{StartAtEarliest: true})
		if err != nil {
			return err
		}
		c, err := g.Join("m0")
		if err != nil {
			return err
		}
		seen := 0
		seenPerKey := map[keyspace.Key]int{}
		for {
			msg, ok, err := c.Poll()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			seen++
			seenPerKey[msg.Key]++
			c.Ack(msg)
		}
		ts, _ := b.Stats("compacted")
		psSignals := 0 // the consumer API carried no indication of compaction

		// ---------------- watch side ----------------
		// The same lag against a watch hub with bounded soft state: the late
		// watcher is explicitly resynced and recovers last-value state (what
		// compaction *means*), knowing events were missed.
		store := mvcc.NewStore()
		hub := core.NewHub(core.HubConfig{Retention: 64})
		defer hub.Close()
		detach := store.AttachCDC(keyspace.Full(), hub)
		defer detach()

		stream2 := workload.NewUpdateStream(workload.NewUniformKeys(opts.Seed, nKeys))
		for i := 0; i < total; i++ {
			k, v := stream2.Next()
			store.Put(k, v)
		}
		var mu sync.Mutex
		wSeen := 0
		wResyncs := 0
		wState := map[keyspace.Key]string{}
		consumer := core.Funcs{
			Event: func(ev core.ChangeEvent) { mu.Lock(); wSeen++; mu.Unlock() },
			Resync: func(r core.ResyncEvent) {
				// Explicit recovery: read the snapshot, knowing the gap.
				entries, _, err := store.SnapshotRange(r.Range)
				if err != nil {
					return
				}
				mu.Lock()
				wResyncs++
				for _, e := range entries {
					wState[e.Key] = string(e.Value)
				}
				mu.Unlock()
			},
		}
		cancel, err := hub.Watch(keyspace.Full(), core.NoVersion, consumer)
		if err != nil {
			return err
		}
		defer cancel()
		if err := settle("the watcher's resync", func() bool { mu.Lock(); defer mu.Unlock(); return wResyncs > 0 }); err != nil {
			return err
		}

		// Both final states carry last values; score them.
		psCorrectLatest := 0
		for _, k := range distinctKeys(nKeys) {
			if seenPerKey[k] >= 1 {
				psCorrectLatest++
			}
		}
		mu.Lock()
		wCorrectLatest := 0
		for _, k := range distinctKeys(nKeys) {
			want, _, ok, _ := store.Get(k, core.NoVersion)
			if ok && wState[k] == string(want) {
				wCorrectLatest++
			}
		}
		wSeenFinal, wResyncsFinal := wSeen, wResyncs
		mu.Unlock()

		tbl := metrics.NewTable("E3 — late subscriber vs compaction",
			"system", "versions written", "versions observable", "compacted away", "loss signalled", "latest state recovered")
		tbl.AddRow("pubsub (compacted topic)", total, seen, ts.CompactedAway, psSignals,
			ratio(psCorrectLatest, nKeys))
		tbl.AddRow("watch (bounded soft state)", total, wSeenFinal, "(evicted)", wResyncsFinal,
			ratio(wCorrectLatest, nKeys))
		tbl.AddNote("pubsub delivered a silently thinned history; watch delivered an explicit resync plus an exact snapshot")
		res.Table = tbl

		res.check("compaction destroyed intermediate versions",
			ts.CompactedAway > 0 && seen < total, "saw %d of %d (compacted %d)", seen, total, ts.CompactedAway)
		res.check("pubsub gave the subscriber no signal", psSignals == 0, "%d signals", psSignals)
		res.check("watch signalled the gap explicitly", wResyncsFinal >= 1, "%d resyncs", wResyncsFinal)
		res.check("watch recovered exact latest state", wCorrectLatest == nKeys, "%d of %d", wCorrectLatest, nKeys)
		return nil
	})
}

func distinctKeys(n int) []keyspace.Key {
	out := make([]keyspace.Key, n)
	for i := range out {
		out[i] = keyspace.NumericKey(i)
	}
	return out
}

func ratio(a, b int) string {
	return fmt.Sprintf("%d/%d", a, b)
}
