package remote

import (
	"fmt"
	"sync/atomic"
	"testing"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// nopSnap is a Snapshotter for transport tests that never resync.
type nopSnap struct{}

func (nopSnap) SnapshotRange(keyspace.Range) ([]core.Entry, core.Version, error) {
	return nil, 0, nil
}

// fixedSnapStore serves a fixed in-memory snapshot.
type fixedSnapStore struct{ entries []core.Entry }

func newFixedSnapStore(n, valSize int) *fixedSnapStore {
	val := make([]byte, valSize)
	for i := range val {
		val[i] = byte(i)
	}
	s := &fixedSnapStore{}
	for i := 0; i < n; i++ {
		s.entries = append(s.entries, core.Entry{
			Key:     keyspace.Key(fmt.Sprintf("key-%08d", i)),
			Value:   val,
			Version: core.Version(i + 1),
		})
	}
	return s
}

func (s *fixedSnapStore) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	return s.entries, core.Version(len(s.entries)), nil
}

// TestSnapshotChunkingLargeSnapshot is the snapshot-streaming regression
// test: a snapshot far larger than the connection's write buffer and the
// outbox's event bound must stream as multiple bounded chunks, arrive
// complete, and never convert the connection's live watch into an overflow
// resync (the old single-frame snapshotResp could only win by luck here:
// one giant allocation on each end and a queue slot race with live events).
func TestSnapshotChunkingLargeSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	store := newFixedSnapStore(8192, 1024) // 8 MiB snapshot
	srv, err := ServeWith("127.0.0.1:0", hub, store, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var delivered, resyncs atomic.Int64
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event:  func(core.ChangeEvent) { delivered.Add(1) },
		Resync: func(core.ResyncEvent) { resyncs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	appendN := func(from, n int) {
		for i := 0; i < n; i++ {
			if err := hub.Append(core.ChangeEvent{
				Key:     keyspace.NumericKey(i % 64),
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
				Version: core.Version(from + i + 1),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Live events before, during (interleaved by the snapshot goroutine on
	// the server), and after the big snapshot.
	appendN(0, 100)
	waitUntil(t, "pre-snapshot events", func() bool { return delivered.Load() >= 100 })

	entries, at, err := client.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8192 {
		t.Fatalf("snapshot returned %d entries, want 8192", len(entries))
	}
	if at != core.Version(8192) {
		t.Fatalf("snapshot at %v, want v8192", at)
	}
	for i, e := range entries {
		if len(e.Value) != 1024 {
			t.Fatalf("entry %d has %d-byte value, want 1024", i, len(e.Value))
		}
	}

	appendN(100, 100)
	waitUntil(t, "post-snapshot events", func() bool { return delivered.Load() >= 200 })

	if n := resyncs.Load(); n != 0 {
		t.Fatalf("live watch got %d resyncs during large snapshot, want 0", n)
	}
	snap := reg.Snapshot()
	if chunks := snap.Counters["remote_server_snap_chunks_total"]; chunks < 2 {
		t.Fatalf("8 MiB snapshot streamed as %d chunks, want >= 2", chunks)
	}
	if ov := snap.Counters["remote_server_overflow_resyncs_total"]; ov != 0 {
		t.Fatalf("snapshot drove %d overflow resyncs, want 0", ov)
	}
}

// TestClientMetricsAccumulateAcrossReconnects is the regression test for the
// per-Dial metrics resolution: counters are created on first use and shared
// by name within a registry, so a second Dial against the same registry must
// accumulate into the same counters — no duplicate registration, no reset,
// no lost counts.
func TestClientMetricsAccumulateAcrossReconnects(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	appendN := func(from, n int) {
		for i := 0; i < n; i++ {
			if err := hub.Append(core.ChangeEvent{
				Key:     keyspace.NumericKey(i),
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
				Version: core.Version(from + i + 1),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	run := func(from core.Version, n int) *Client {
		c, err := DialWith(srv.Addr(), ClientConfig{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		var got atomic.Int64
		if _, err := c.Watch(keyspace.Full(), from, core.Funcs{
			Event: func(core.ChangeEvent) { got.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
		appendN(int(from), n)
		waitUntil(t, "events on this connection", func() bool { return got.Load() >= int64(n) })
		return c
	}

	c1 := run(0, 10)
	mid := reg.Snapshot()
	if n := mid.Counters["remote_client_events_total"]; n != 10 {
		t.Fatalf("first connection counted %d events, want 10", n)
	}
	c1.Close()
	waitUntil(t, "first connection loss observed", func() bool {
		return reg.Snapshot().Counters["remote_client_conn_lost_total"] == 1
	})

	c2 := run(10, 10) // second Dial, same registry: counts must continue, not reset
	defer c2.Close()

	snap := reg.Snapshot()
	if n := snap.Counters["remote_client_watches_total"]; n != 2 {
		t.Fatalf("remote_client_watches_total = %d after two dials, want 2", n)
	}
	if n := snap.Counters["remote_client_events_total"]; n != 20 {
		t.Fatalf("remote_client_events_total = %d across reconnects, want 20 (drift/reset)", n)
	}
	if n := snap.Counters["remote_client_conn_lost_total"]; n != 1 {
		t.Fatalf("remote_client_conn_lost_total = %d after one Close, want 1", n)
	}
}

// TestEventBatchesSurviveWire asserts the tentpole behaviour directly: a
// batched append crosses the wire in far fewer frames than events, instead
// of the old one-frame-per-event flattening.
func TestEventBatchesSurviveWire(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var got atomic.Int64
	var lastVer atomic.Uint64
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(ev core.ChangeEvent) {
			got.Add(1)
			lastVer.Store(uint64(ev.Version))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const total, batch = 1024, 64
	evs := make([]core.ChangeEvent, 0, batch)
	for v := 1; v <= total; v += batch {
		evs = evs[:0]
		for i := 0; i < batch; i++ {
			evs = append(evs, core.ChangeEvent{
				Key:     keyspace.NumericKey(i),
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("batched")},
				Version: core.Version(v + i),
			})
		}
		if err := hub.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "batched events", func() bool { return got.Load() >= total })
	if v := lastVer.Load(); v != total {
		t.Fatalf("last delivered version %d, want %d (order broken)", v, total)
	}

	snap := reg.Snapshot()
	events := snap.Counters["remote_server_events_total"]
	frames := snap.Counters["remote_server_frames_total"]
	if events != total {
		t.Fatalf("remote_server_events_total = %d, want %d", events, total)
	}
	if frames >= events/2 {
		t.Fatalf("%d frames for %d events: wire batching is not happening", frames, events)
	}
	if cgot := snap.Counters["remote_client_events_total"]; cgot != total {
		t.Fatalf("remote_client_events_total = %d, want %d", cgot, total)
	}
}

// TestRemoteTraceStages runs a traced event through the full six-stage
// remote pipeline on loopback: commit → append → enqueue → deliver →
// remote-enqueue → remote-deliver, completing at the client callback.
func TestRemoteTraceStages(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.New(trace.Config{
		SampleEvery: 1,
		Metrics:     reg,
		FinalStage:  trace.StageRemoteDeliver,
	})
	hub := core.NewHub(core.HubConfig{Metrics: reg, Tracer: tracer})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), ClientConfig{Metrics: reg, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const n = 32
	for i := 1; i <= n; i++ {
		key := keyspace.NumericKey(i)
		id := tracer.Begin(key, uint64(i))
		if err := hub.Append(core.ChangeEvent{
			Key:     key,
			Mut:     core.Mutation{Op: core.OpPut, Value: []byte("traced")},
			Version: core.Version(i),
			Trace:   id,
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "traces completed", func() bool { return tracer.CompletedCount() >= n })

	for _, tr := range tracer.Completed() {
		if tr.FinalStage() != trace.StageRemoteDeliver {
			t.Fatalf("trace %d final stage %v, want remote-deliver", tr.ID, tr.FinalStage())
		}
		if !tr.Complete() {
			t.Fatalf("incomplete remote trace: %+v", tr)
		}
		// Enqueue and replay are alternative entries into delivery: events
		// appended after the remote watch registered are enqueued live,
		// while events the registration found in retention are re-streamed
		// with a replay stamp instead. Each trace must carry at least one of
		// the two; the monotonicity check skips whichever is absent.
		for s := 1; s < trace.NumStages; s++ {
			if tr.Stages[s] == 0 {
				if st := trace.Stage(s); (st == trace.StageEnqueue && tr.Stages[trace.StageReplay] != 0) ||
					(st == trace.StageReplay && tr.Stages[trace.StageEnqueue] != 0) {
					continue
				}
				t.Fatalf("trace %d missing stage %v: %+v", tr.ID, trace.Stage(s), tr)
			}
			for p := s - 1; p >= 0; p-- {
				if tr.Stages[p] == 0 {
					continue
				}
				if tr.Stages[s] < tr.Stages[p] {
					t.Fatalf("trace %d stage %v stamped before %v: %+v",
						tr.ID, trace.Stage(s), trace.Stage(p), tr)
				}
				break
			}
		}
	}
	if got := tracer.InflightCount(); got != 0 {
		t.Fatalf("%d traces still in flight after completion", got)
	}
}
