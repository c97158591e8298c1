package remote

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// scriptedSource is a Watchable the test drives by hand: it keeps each
// registered watch's sink by watch ID and sends nothing on its own, so the
// test decides exactly which run each watch receives, and in what order.
type scriptedSource struct {
	mu    sync.Mutex
	sinks map[uint64]connWatchSink
}

func (s *scriptedSource) Watch(_ keyspace.Range, _ core.Version, cb core.WatchCallback) (core.Cancel, error) {
	sink := cb.(connWatchSink)
	s.mu.Lock()
	s.sinks[sink.id] = sink
	s.mu.Unlock()
	return func() {}, nil
}

// send hands run to watch id's connection outbox, as a hub dispatcher would.
func (s *scriptedSource) send(id uint64, run []core.ChangeEvent) {
	s.mu.Lock()
	sink := s.sinks[id]
	s.mu.Unlock()
	sink.OnEventBatch(run)
}

// scriptedConn is one client connection to a server over a scriptedSource,
// carrying n full-range watches that record every event they receive.
type scriptedConn struct {
	src     *scriptedSource
	reg     *metrics.Registry
	resyncs atomic.Int64

	mu  sync.Mutex
	got [][]core.ChangeEvent // by watch: got[i] is watch ID i+1's stream
}

func newScriptedConn(t *testing.T, n int) *scriptedConn {
	t.Helper()
	sc := &scriptedConn{
		src: &scriptedSource{sinks: make(map[uint64]connWatchSink)},
		reg: metrics.NewRegistry(),
		got: make([][]core.ChangeEvent, n),
	}
	// No server heartbeats: the server's byte count is the event frames'.
	srv, err := ServeWith("127.0.0.1:0", sc.src, nopSnap{}, ServerConfig{Metrics: sc.reg, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	client, err := DialWith(srv.Addr(), ClientConfig{Metrics: sc.reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	for i := range n {
		if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
			Event: func(ev core.ChangeEvent) {
				sc.mu.Lock()
				sc.got[i] = append(sc.got[i], ev)
				sc.mu.Unlock()
			},
			Resync: func(core.ResyncEvent) { sc.resyncs.Add(1) },
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "watches registered", func() bool {
		sc.src.mu.Lock()
		defer sc.src.mu.Unlock()
		return len(sc.src.sinks) == n
	})
	return sc
}

func (sc *scriptedConn) delivered() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for _, evs := range sc.got {
		n += len(evs)
	}
	return n
}

// differInOneField returns a copy of run with one event changed in one of
// the fields a repeat must match: key, version, op, value bytes, nil against
// empty value, or trace.
func differInOneField(rng *rand.Rand, run []core.ChangeEvent) []core.ChangeEvent {
	out := slices.Clone(run)
	ev := &out[rng.Intn(len(out))]
	switch rng.Intn(6) {
	case 0:
		ev.Key += "'"
	case 1:
		ev.Version++
	case 2:
		ev.Mut.Op = core.OpPut + core.OpDelete - ev.Mut.Op
	case 3:
		ev.Mut.Value = append(slices.Clone(ev.Mut.Value), 'x')
	case 4:
		if ev.Mut.Value == nil {
			ev.Mut.Value = []byte{}
		} else {
			ev.Mut.Value = nil
		}
	case 5:
		ev.Trace++
	}
	return out
}

// TestRepeatFramesDeliverWhatBatchesWould drives a seeded stream of runs
// through a real Server and Client. Each round, every watch on the one
// connection gets either the round's run or a copy that differs from it in
// one field, so the writer emits a mix of full batches and repeats. Every
// watch must receive exactly the sequence it was sent.
func TestRepeatFramesDeliverWhatBatchesWould(t *testing.T) {
	// Even if the writer sent nothing until the end, rounds × watches × 16
	// events stay under outboundLimit: no overflow resync can intervene.
	const watches, rounds = 6, 60
	sc := newScriptedConn(t, watches)
	rng := rand.New(rand.NewSource(1))
	want := make([][]core.ChangeEvent, watches)
	total := 0
	var ver core.Version
	for range rounds {
		run := randBatch(rng, 1+rng.Intn(16), &ver)
		for w := range watches {
			evs := run
			if rng.Intn(3) == 0 {
				evs = differInOneField(rng, run)
			}
			want[w] = append(want[w], evs...)
			total += len(evs)
			sc.src.send(uint64(w+1), evs)
		}
	}
	waitUntil(t, "every run delivered", func() bool { return sc.delivered() == total })
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for w := range watches {
		if !reflect.DeepEqual(sc.got[w], want[w]) {
			t.Fatalf("watch %d received a different stream than it was sent (%d events, want %d)",
				w+1, len(sc.got[w]), len(want[w]))
		}
	}
	if n := sc.resyncs.Load(); n != 0 {
		t.Fatalf("%d resyncs", n)
	}
}

// TestSharedRunCrossesConnectionOnce pins what a shared run costs on the
// wire: 32 full-range watches on one connection each receive the same
// 128-event run, and the server writes one full batch plus at most 8 bytes
// for each watch.
func TestSharedRunCrossesConnectionOnce(t *testing.T) {
	const watches, n = 32, 128
	sc := newScriptedConn(t, watches)
	run := make([]core.ChangeEvent, n)
	for i := range run {
		run[i] = core.ChangeEvent{
			Key:     keyspace.NumericKey(i),
			Mut:     core.Mutation{Op: core.OpPut, Value: bytes.Repeat([]byte{byte(i)}, 64)},
			Version: core.Version(i + 1),
		}
	}
	full := int64(len(wireBytes(func(e *binEncoder) error { return e.eventBatch(1, run) })))
	sent := func() int64 { return sc.reg.Snapshot().Counters["remote_server_bytes_total"] }
	waitUntil(t, "server hello written", func() bool { return sent() > 0 })
	before := sent()
	for w := 1; w <= watches; w++ {
		sc.src.send(uint64(w), run)
	}
	waitUntil(t, "run delivered to every watch", func() bool { return sc.delivered() == watches*n })
	// The client has everything, so the server has written at least the full
	// batch; wait for the count of its last write to land.
	waitUntil(t, "server byte count", func() bool { return sent()-before >= full })
	if got, limit := sent()-before, full+watches*8; got > limit {
		t.Fatalf("%d watches sharing a %d-event run cost %d wire bytes, want <= %d (one %d-byte batch + %d × 8)",
			watches, n, got, limit, full, watches)
	}
}

// TestSameRun is the repeat rule: a run that differs from the previous one
// in any field a consumer can observe is not a repeat.
func TestSameRun(t *testing.T) {
	changed := func(f func(evs []core.ChangeEvent)) []core.ChangeEvent {
		evs := goldenBatch()
		f(evs)
		return evs
	}
	for _, tc := range []struct {
		name string
		run  []core.ChangeEvent
		same bool
	}{
		{"identical", goldenBatch(), true},
		{"shorter", goldenBatch()[:3], false},
		{"key", changed(func(evs []core.ChangeEvent) { evs[0].Key = "users/000000000009" }), false},
		{"version", changed(func(evs []core.ChangeEvent) { evs[1].Version++ }), false},
		{"op", changed(func(evs []core.ChangeEvent) { evs[1].Mut.Op = core.OpPut }), false},
		{"value bytes", changed(func(evs []core.ChangeEvent) { evs[0].Mut.Value = []byte("alphb") }), false},
		{"nil vs empty value", changed(func(evs []core.ChangeEvent) { evs[2].Mut.Value = nil }), false},
		{"trace", changed(func(evs []core.ChangeEvent) { evs[1].Trace = 0 }), false},
	} {
		if got := sameRun(goldenBatch(), tc.run); got != tc.same {
			t.Errorf("%s: sameRun = %v, want %v", tc.name, got, tc.same)
		}
	}
}
