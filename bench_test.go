// Benchmarks: one testing.B target per reproduced figure/claim (the E1–E11
// index in DESIGN.md), each running the corresponding experiment driver and
// failing if any of its shape checks fail — so `go test -bench=.` both times
// and re-verifies the whole reproduction — plus microbenchmarks of the
// public API's hot paths.
package unbundle_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"unbundle"
	"unbundle/internal/experiments"
)

// reportQuantiles attaches a registry histogram's p50/p99 to the benchmark
// output, so `go test -bench` prints per-op latency quantiles (not just the
// mean ns/op) for any instrumented subsystem.
func reportQuantiles(b *testing.B, reg *unbundle.MetricsRegistry, hist, unit string) {
	b.Helper()
	snap := reg.Snapshot()
	h, ok := snap.Histograms[hist]
	if !ok || h.Count == 0 {
		return
	}
	b.ReportMetric(float64(h.P50), "p50-"+unit)
	b.ReportMetric(float64(h.P99), "p99-"+unit)
}

// reportCounters attaches registry counters to the benchmark output under
// "ctr-<name>" units, so each timing line carries the behaviour totals
// (delivered, resyncs, overflow drops) it was measured under.
func reportCounters(b *testing.B, reg *unbundle.MetricsRegistry, counters map[string]string) {
	b.Helper()
	snap := reg.Snapshot()
	for name, counter := range counters {
		b.ReportMetric(float64(snap.Counters[counter]), "ctr-"+name)
	}
}

// hubCounters names the hub totals every hub benchmark reports.
var hubCounters = map[string]string{
	"delivered": "core_hub_delivered_total",
	"resyncs":   "core_hub_resyncs_total",
	"overflow":  "core_hub_append_overflow_total",
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(experiments.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if failed := res.Failed(); len(failed) > 0 {
			b.Fatalf("%s: %d checks failed, first: %s — %s", id, len(failed), failed[0].Name, failed[0].Detail)
		}
	}
}

func BenchmarkE1PubsubBaseline(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2RetentionLoss(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3CompactionLoss(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4CatchUp(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5Replication(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6InvalidationRace(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7IngestFanout(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8WorkQueue(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9KnowledgeStitch(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkE10Efficiency(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11Quadrants(b *testing.B)       { benchExperiment(b, "E11") }
func BenchmarkE12RemoteTransport(b *testing.B) { benchExperiment(b, "E12") }

// --- public-API microbenchmarks ---

func BenchmarkStorePut(b *testing.B) {
	store := unbundle.NewStore()
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Put(unbundle.Key(fmt.Sprintf("key-%06d", i%10000)), val)
	}
}

func BenchmarkStoreSnapshotGet(b *testing.B) {
	store := unbundle.NewStore()
	for i := 0; i < 10000; i++ {
		store.Put(unbundle.Key(fmt.Sprintf("key-%06d", i)), []byte("v"))
	}
	at := store.CurrentVersion()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Get(unbundle.Key(fmt.Sprintf("key-%06d", i%10000)), at)
	}
}

func BenchmarkWatchEndToEnd(b *testing.B) {
	// Full pipeline: store commit → CDC → hub → watcher callback.
	reg := unbundle.NewMetricsRegistry()
	store := unbundle.NewWatchableStore(unbundle.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 20, Metrics: reg})
	defer store.Close()
	done := make(chan struct{}, 1)
	var want atomic.Int64
	cancel, err := store.Watch(unbundle.FullRange(), 0, unbundle.Callbacks{
		Event: func(ev unbundle.ChangeEvent) {
			if int64(ev.Version) == want.Load() {
				done <- struct{}{}
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cancel()
	b.ResetTimer()
	want.Store(int64(b.N))
	for i := 0; i < b.N; i++ {
		store.Put("key", []byte("value"))
	}
	<-done // delivery of the final event bounds the pipeline latency
	b.StopTimer()
	reportQuantiles(b, reg, "core_hub_append_latency_ns", "ns")
	reportCounters(b, reg, hubCounters)
}

func BenchmarkBrokerPublish(b *testing.B) {
	broker := unbundle.NewBroker(unbundle.BrokerConfig{})
	defer broker.Close()
	if err := broker.CreateTopic("t", unbundle.TopicConfig{Partitions: 8}); err != nil {
		b.Fatal(err)
	}
	val := []byte("0123456789abcdef0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.Publish("t", unbundle.Key(fmt.Sprintf("key-%06d", i%10000)), val)
	}
}

func BenchmarkBrokerGroupConsume(b *testing.B) {
	reg := unbundle.NewMetricsRegistry()
	broker := unbundle.NewBroker(unbundle.BrokerConfig{Metrics: reg})
	defer broker.Close()
	broker.CreateTopic("t", unbundle.TopicConfig{Partitions: 8})
	g, err := broker.Group("t", "g", unbundle.GroupConfig{StartAtEarliest: true})
	if err != nil {
		b.Fatal(err)
	}
	c, err := g.Join("m0")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		broker.Publish("t", unbundle.Key(fmt.Sprintf("key-%06d", i%10000)), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, ok, err := c.Poll()
		if err != nil || !ok {
			b.Fatalf("poll %d: ok=%v err=%v", i, ok, err)
		}
		c.Ack(msg)
	}
	b.StopTimer()
	reportQuantiles(b, reg, "pubsub_deliver_latency_ns", "ns")
}

func BenchmarkKnowledgeStitch(b *testing.B) {
	ks := unbundle.NewKnowledgeSet()
	for i := 0; i < 64; i++ {
		lo := unbundle.Key(fmt.Sprintf("%03d", i*10))
		hi := unbundle.Key(fmt.Sprintf("%03d", i*10+10))
		ks.AddSnapshot(unbundle.Range{Low: lo, High: hi}, unbundle.Version(10+i))
		ks.ExtendTo(unbundle.Range{Low: lo, High: hi}, unbundle.Version(100+i))
	}
	q1 := unbundle.Range{Low: "015", High: "035"}
	q2 := unbundle.Range{Low: "405", High: "425"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks.StitchVersion(q1, q2)
	}
}

func BenchmarkSharderOwner(b *testing.B) {
	shd := unbundle.NewSharder(unbundle.SharderConfig{InitialShards: 64}, "p0", "p1", "p2", "p3")
	defer shd.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shd.Owner(unbundle.Key(fmt.Sprintf("%012d", i%64000)))
	}
}
