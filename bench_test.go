// Microbenchmarks of the public API's hot paths that no `go run ./bench`
// layer metric reports. The experiments' shape checks run in
// TestAllExperimentsQuick, and the end-to-end pipeline is the bench
// harness's own.
package unbundle_test

import (
	"fmt"
	"testing"

	"unbundle"
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
