package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/coretest"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/trace"
)

// fastReconnect is the retry policy chaos tests use: effectively unlimited
// attempts, millisecond backoff, fixed jitter seed.
func fastReconnect() ReconnectPolicy {
	return ReconnectPolicy{
		Enabled:     true,
		MaxAttempts: -1,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Seed:        1,
	}
}

// TestChaosHeartbeatDetectsHalfOpen blackholes a live connection — reads
// block, writes vanish, exactly the NAT-timeout / partition shape that used
// to hang a watcher forever — and asserts both ends detect it via
// heartbeat-scaled deadlines: the client reconnects and resumes without a
// resync or a duplicate, and the server reaps the dead connection.
func TestChaosHeartbeatDetectsHalfOpen(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 16, Metrics: reg})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{
		Metrics:           reg,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctrl := NewChaosController(ChaosConfig{})
	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics:           reg,
		HeartbeatInterval: 20 * time.Millisecond,
		Reconnect:         fastReconnect(),
		Dialer:            ctrl.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var mu sync.Mutex
	seen := make(map[core.Version]bool)
	var dups atomic.Int64
	var resyncs atomic.Int64
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(ev core.ChangeEvent) {
			mu.Lock()
			if seen[ev.Version] {
				dups.Add(1)
			}
			seen[ev.Version] = true
			mu.Unlock()
		},
		Resync: func(core.ResyncEvent) { resyncs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	produce := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := hub.Append(core.ChangeEvent{
				Key:     keyspace.NumericKey(i % 64),
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
				Version: core.Version(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	produce(1, 100)
	waitUntil(t, "first 100 events", func() bool { return delivered() == 100 })

	// Half-open the connection: neither end gets a FIN or RST, only silence.
	ctrl.BlackholeLive()
	produce(101, 200) // lands while partitioned; resume must recover it
	waitUntil(t, "client reconnect", func() bool { return ctrl.Dials() >= 2 })
	produce(201, 300)
	waitUntil(t, "all 300 events", func() bool { return delivered() == 300 })

	if n := dups.Load(); n != 0 {
		t.Fatalf("%d duplicate events across reconnect", n)
	}
	if n := resyncs.Load(); n != 0 {
		t.Fatalf("%d resyncs; resume should have covered the gap silently", n)
	}
	waitUntil(t, "server reaps dead conn", func() bool { return len(srv.Conns()) == 1 })

	snap := reg.Snapshot()
	if snap.Counters["remote_client_reconnects_total"] < 1 {
		t.Fatal("no reconnect counted")
	}
	if snap.Counters["remote_client_resumed_watches_total"] < 1 {
		t.Fatal("no resumed watch counted")
	}
	if snap.Counters["remote_client_heartbeats_total"] == 0 {
		t.Fatal("client sent no heartbeats")
	}
	if snap.Counters["remote_server_heartbeats_total"] == 0 {
		t.Fatal("server sent no heartbeats")
	}
}

// TestChaosRepeatedSeverConvergence is the acceptance-criteria run: ≥3
// forced partitions under load, after which every one of 8 full-range
// watches on the client's one connection has converged with no duplicates,
// no gaps, per-key order intact — and the client's metrics and trace stages
// are continuous across the reconnects (stable watch IDs, every trace
// complete through all six stages). The watches share runs, so most of
// their frames are repeats; no decode error means each new connection's
// first event frame was a full batch.
func TestChaosRepeatedSeverConvergence(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.New(trace.Config{
		SampleEvery: 1,
		Metrics:     reg,
		FinalStage:  trace.StageRemoteDeliver,
	})
	hub := core.NewHub(core.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 16, Metrics: reg, Tracer: tracer})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{
		Metrics:           reg,
		Tracer:            tracer,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctrl := NewChaosController(ChaosConfig{})
	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics:           reg,
		Tracer:            tracer,
		HeartbeatInterval: 20 * time.Millisecond,
		Reconnect:         fastReconnect(),
		Dialer:            ctrl.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const watches = 8
	var mu sync.Mutex
	var totals [watches]atomic.Int64
	var orderViolations, dups, resyncs atomic.Int64
	for w := range watches {
		lastByKey := make(map[keyspace.Key]core.Version)
		cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
			Event: func(ev core.ChangeEvent) {
				mu.Lock()
				switch last := lastByKey[ev.Key]; {
				case ev.Version == last:
					dups.Add(1)
				case ev.Version < last:
					orderViolations.Add(1)
				default:
					lastByKey[ev.Key] = ev.Version
					totals[w].Add(1)
				}
				mu.Unlock()
			},
			Resync: func(core.ResyncEvent) { resyncs.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
	}
	converged := func(want int64) bool {
		for w := range totals {
			if totals[w].Load() != want {
				return false
			}
		}
		return true
	}

	const rounds, perRound = 4, 50
	v := 0
	for round := 1; round <= rounds; round++ {
		for i := 0; i < perRound; i++ {
			v++
			key := keyspace.NumericKey(v % 16)
			id := tracer.Begin(key, uint64(v))
			if err := hub.Append(core.ChangeEvent{
				Key:     key,
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("chaos")},
				Version: core.Version(v),
				Trace:   id,
			}); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(v)
		waitUntil(t, "round delivery", func() bool { return converged(want) })
		if round < rounds {
			dial := ctrl.Dials()
			ctrl.SeverAll()
			waitUntil(t, "reconnect after sever", func() bool { return ctrl.Dials() > dial })
		}
	}

	if n := dups.Load(); n != 0 {
		t.Fatalf("%d duplicates", n)
	}
	if n := orderViolations.Load(); n != 0 {
		t.Fatalf("%d per-key order violations", n)
	}
	if n := resyncs.Load(); n != 0 {
		t.Fatalf("%d resyncs; retention covered every gap", n)
	}

	// Metrics continuity: each logical watch once across all reconnects,
	// each reconnect counted, no terminal loss, no stream a decoder refused.
	snap := reg.Snapshot()
	if got := snap.Counters["remote_client_watches_total"]; got != watches {
		t.Fatalf("remote_client_watches_total = %d, want %d (stable watch IDs)", got, watches)
	}
	if got := snap.Counters["remote_client_reconnects_total"]; got < int64(rounds-1) {
		t.Fatalf("remote_client_reconnects_total = %d, want >= %d", got, rounds-1)
	}
	if got := snap.Counters["remote_client_resumed_watches_total"]; got < int64(watches*(rounds-1)) {
		t.Fatalf("remote_client_resumed_watches_total = %d, want >= %d", got, watches*(rounds-1))
	}
	if got := snap.Counters["remote_client_decode_errors_total"]; got != 0 {
		t.Fatalf("remote_client_decode_errors_total = %d, want 0", got)
	}
	if got := snap.Counters["remote_client_conn_lost_total"]; got < int64(rounds-1) {
		t.Fatalf("remote_client_conn_lost_total = %d, want >= %d", got, rounds-1)
	}

	// Trace continuity: every event's trace completed through the whole
	// pipeline, reconnects notwithstanding. Enqueue and replay are
	// alternative entries into delivery — an event delivered live before a
	// sever and re-streamed from retention after the resume carries both
	// stamps, one appended mid-partition carries only replay, and one that
	// never crossed a reconnect carries only enqueue.
	waitUntil(t, "traces completed", func() bool { return tracer.CompletedCount() >= int64(v) })
	for _, tr := range tracer.Completed() {
		if !tr.Complete() {
			t.Fatalf("incomplete trace across reconnects: %+v", tr)
		}
		for s := 1; s < trace.NumStages; s++ {
			if tr.Stages[s] != 0 {
				continue
			}
			if st := trace.Stage(s); (st == trace.StageEnqueue && tr.Stages[trace.StageReplay] != 0) ||
				(st == trace.StageReplay && tr.Stages[trace.StageEnqueue] != 0) {
				continue
			}
			t.Fatalf("trace %d missing stage %v", tr.ID, trace.Stage(s))
		}
	}
}

// TestServerShutdownDrainsGracefully shuts the server down mid-session and
// asserts the client can tell it apart from a network failure: delivered
// events stay delivered, the watch ends in a terminal "draining" resync, and
// a reconnect-enabled client does not burn its budget redialing.
func TestServerShutdownDrainsGracefully(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{
		Metrics:           reg,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics:           reg,
		HeartbeatInterval: 20 * time.Millisecond,
		Reconnect:         fastReconnect(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var delivered atomic.Int64
	var gotResync atomic.Value // core.ResyncEvent
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event:  func(core.ChangeEvent) { delivered.Add(1) },
		Resync: func(r core.ResyncEvent) { gotResync.Store(r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	for i := 1; i <= 20; i++ {
		if err := hub.Append(core.ChangeEvent{
			Key:     keyspace.NumericKey(i),
			Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
			Version: core.Version(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "pre-drain delivery", func() bool { return delivered.Load() == 20 })

	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	waitUntil(t, "terminal drain resync", func() bool { return gotResync.Load() != nil })
	r := gotResync.Load().(core.ResyncEvent)
	if r.Reason != "remote: server draining" {
		t.Fatalf("resync reason %q, want draining marker", r.Reason)
	}
	if got := delivered.Load(); got != 20 {
		t.Fatalf("delivered %d events, want 20 (drain must not drop delivered state)", got)
	}

	// The client learned this was a drain: it must refuse new work with the
	// draining error rather than dial into the void.
	waitUntil(t, "client terminal", func() bool {
		_, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{})
		return errors.Is(err, ErrServerDraining)
	})
	snap := reg.Snapshot()
	if got := snap.Counters["remote_server_drained_watches_total"]; got != 1 {
		t.Fatalf("remote_server_drained_watches_total = %d, want 1", got)
	}
	if got := snap.Counters["remote_client_reconnects_total"]; got != 0 {
		t.Fatalf("client reconnected %d times during a deliberate drain", got)
	}
}

// TestClientCloseUnderLoad closes the client while the server is streaming
// at full tilt: no goroutine may leak, no data race may fire (run under
// -race), the watch must end in exactly one terminal resync, and subsequent
// calls must fail with ErrClientClosed.
func TestClientCloseUnderLoad(t *testing.T) {
	checkLeaks := coretest.GoroutineLeakGuard(t, 3)
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 16, Metrics: reg})
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialWith(srv.Addr(), ClientConfig{Metrics: reg, Reconnect: fastReconnect()})
	if err != nil {
		t.Fatal(err)
	}

	var delivered atomic.Int64
	var resyncs atomic.Int64
	if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event:  func(core.ChangeEvent) { delivered.Add(1) },
		Resync: func(core.ResyncEvent) { resyncs.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var producerDone sync.WaitGroup
	producerDone.Add(1)
	go func() {
		defer producerDone.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = hub.Append(core.ChangeEvent{
				Key:     keyspace.NumericKey(i % 32),
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("load")},
				Version: core.Version(i),
			})
			// Keep a bounded backlog in flight so the hub never lags the
			// watcher out; after Close the count freezes and we park here
			// until the test releases us.
			for delivered.Load()+4096 < int64(i) {
				select {
				case <-stop:
					return
				default:
					time.Sleep(time.Millisecond)
				}
			}
		}
	}()

	waitUntil(t, "stream flowing", func() bool { return delivered.Load() > 100 })
	client.Close() // mid-decode: the read loop is busy delivering right now

	waitUntil(t, "terminal resync", func() bool { return resyncs.Load() == 1 })
	if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Watch after Close = %v, want ErrClientClosed", err)
	}
	if _, _, err := client.SnapshotRange(keyspace.Full()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("SnapshotRange after Close = %v, want ErrClientClosed", err)
	}

	close(stop)
	producerDone.Wait()
	srv.Close()
	hub.Close()
	checkLeaks()
}

// TestClientCloseMidReconnect kills the server so the client enters its
// redial loop, then closes the client mid-dial: the loop must exit promptly,
// deliver the terminal resync, and leak nothing.
func TestClientCloseMidReconnect(t *testing.T) {
	checkLeaks := coretest.GoroutineLeakGuard(t, 3)
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewChaosController(ChaosConfig{})
	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics:   reg,
		Reconnect: fastReconnect(),
		Dialer:    ctrl.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var resyncs atomic.Int64
	if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Resync: func(core.ResyncEvent) { resyncs.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}

	ctrl.FailNextDials(1 << 30) // every redial refused: the loop spins on backoff
	srv.Close()
	waitUntil(t, "reconnect loop spinning", func() bool {
		return reg.Snapshot().Counters["remote_client_reconnect_failures_total"] >= 2
	})
	client.Close()

	waitUntil(t, "terminal resync", func() bool { return resyncs.Load() == 1 })
	if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Watch after Close = %v, want ErrClientClosed", err)
	}
	hub.Close()
	checkLeaks()
}

// TestReconnectBudgetExhausted takes the server away permanently and asserts
// the retry budget is honored: the client fails terminally with
// ErrReconnectBudget after exactly MaxAttempts refused dials, and the watch
// gets a resync saying so — bounded recovery, not an infinite dial storm.
func TestReconnectBudgetExhausted(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewChaosController(ChaosConfig{})
	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics: reg,
		Reconnect: ReconnectPolicy{
			Enabled:     true,
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  4 * time.Millisecond,
			Seed:        7,
		},
		Dialer: ctrl.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resyncCh := make(chan core.ResyncEvent, 1)
	if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Resync: func(r core.ResyncEvent) { resyncCh <- r },
	}); err != nil {
		t.Fatal(err)
	}

	ctrl.FailNextDials(1 << 30)
	srv.Close()

	var r core.ResyncEvent
	select {
	case r = <-resyncCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no terminal resync after budget exhaustion")
	}
	if want := "reconnect gave up after 3 attempts"; !contains(r.Reason, want) {
		t.Fatalf("resync reason %q, want it to contain %q", r.Reason, want)
	}
	_, err = client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{})
	if !errors.Is(err, ErrReconnectBudget) {
		t.Fatalf("Watch after budget exhaustion = %v, want ErrReconnectBudget", err)
	}
	if got := reg.Snapshot().Counters["remote_client_reconnect_failures_total"]; got != 3 {
		t.Fatalf("remote_client_reconnect_failures_total = %d, want 3", got)
	}
}

// wireBytes returns the bytes the binary encoder emits for one frame.
func wireBytes(frame func(*binEncoder) error) []byte {
	var buf bytes.Buffer
	enc, bw := newTestEncoder(&buf)
	if err := frame(enc); err != nil {
		panic(err)
	}
	bw.Flush()
	return buf.Bytes()
}

// goodHello is the opening frame a well-behaved peer sends.
func goodHello() []byte {
	return wireBytes(func(e *binEncoder) error {
		return e.hello(&helloMsg{Version: protoVersion, HeartbeatMillis: 1000})
	})
}

// binGarbage is a frame the decoder must refuse: a valid event-batch tag
// whose uvarint payload length exceeds maxFrameLen, tripping the frame size
// guard before any payload bytes are read.
func binGarbage() []byte {
	return binary.AppendUvarint([]byte{tagEventBatch}, uint64(maxFrameLen)+1)
}

// badHellos are the opening streams both ends must refuse.
var badHellos = []struct {
	name   string
	stream []byte
}{
	{"wrong version", wireBytes(func(e *binEncoder) error {
		return e.hello(&helloMsg{Version: protoVersion - 1, HeartbeatMillis: 1000})
	})},
	{"non-hello first frame", wireBytes((*binEncoder).heartbeat)},
	{"truncated hello", []byte{tagHello, 1, protoVersion}}, // payload ends before the heartbeat interval
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// requireServerRejects writes stream to a fresh server on a raw connection:
// the server must count exactly one decode error, close that connection
// (after its own hello) and reap it — typed failure, never a hang.
func requireServerRejects(t *testing.T, stream []byte) {
	t.Helper()
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	srv, err := ServeWith("127.0.0.1:0", hub, nopSnap{}, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server did not close the poisoned connection: %v", err)
	}
	waitUntil(t, "poisoned conn reaped", func() bool { return len(srv.Conns()) == 0 })
	if got := reg.Snapshot().Counters["remote_server_decode_errors_total"]; got != 1 {
		t.Fatalf("remote_server_decode_errors_total = %d, want 1", got)
	}
}

// TestMalformedFramesServer sends a well-formed frame with an unknown tag
// after a valid hello.
func TestMalformedFramesServer(t *testing.T) {
	requireServerRejects(t, append(goodHello(), 99, 0))
}

// TestMalformedBinaryFrameServer sends a frame whose length field exceeds
// maxFrameLen after a valid hello: the server must reject it without ever
// allocating the declared size.
func TestMalformedBinaryFrameServer(t *testing.T) {
	requireServerRejects(t, append(goodHello(), binGarbage()...))
}

// TestMalformedHelloServer covers the handshake: a stream that does not open
// with a hello announcing protoVersion is refused at its first frame.
func TestMalformedHelloServer(t *testing.T) {
	for _, tc := range badHellos {
		t.Run(tc.name, func(t *testing.T) { requireServerRejects(t, tc.stream) })
	}
}

// requireClientRejects runs a client against a fake server that waits for the
// client's hello and watch request, then answers with stream. The connection
// must fail with a typed *ProtocolError (surfaced from subsequent calls), the
// decode-error counter must bump once, and the watch must get its terminal
// resync.
func requireClientRejects(t *testing.T, stream []byte) *ProtocolError {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := newBinDecoder(bufio.NewReader(conn))
		for i := 0; i < 2; i++ { // the client's hello, then its watch request
			if _, err := dec.readTag(); err != nil {
				return
			}
		}
		conn.Write(stream)
		io.Copy(io.Discard, conn)
	}()

	reg := metrics.NewRegistry()
	client, err := DialWith(ln.Addr().String(), ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resyncCh := make(chan core.ResyncEvent, 1)
	if _, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Resync: func(r core.ResyncEvent) { resyncCh <- r },
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-resyncCh:
	case <-time.After(5 * time.Second):
		t.Fatal("no resync after protocol error")
	}
	if got := reg.Snapshot().Counters["remote_client_decode_errors_total"]; got != 1 {
		t.Fatalf("remote_client_decode_errors_total = %d, want 1", got)
	}
	_, err = client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{})
	var perr *ProtocolError
	if !errors.As(err, &perr) {
		t.Fatalf("Watch after protocol error = %v, want wrapped *ProtocolError", err)
	}
	return perr
}

// TestMalformedBinaryFrameClient is the mirror image of the server test: a
// fake server says hello, then injects a frame the client must refuse.
func TestMalformedBinaryFrameClient(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"over-length frame", binGarbage()},
		{"repeat before any batch", wireBytes(func(e *binEncoder) error { return e.eventRepeat(1) })},
	} {
		t.Run(tc.name, func(t *testing.T) { requireClientRejects(t, append(goodHello(), tc.frame...)) })
	}
}

// TestMalformedHelloClient is the handshake table from the client's end.
func TestMalformedHelloClient(t *testing.T) {
	for _, tc := range badHellos {
		t.Run(tc.name, func(t *testing.T) {
			if perr := requireClientRejects(t, tc.stream); perr.Op != "hello" {
				t.Fatalf("ProtocolError.Op = %q, want \"hello\"", perr.Op)
			}
		})
	}
}

// TestOverflowPreservesRecoveryFrameOrder is the white-box half of the
// overflow coverage: overflowLocked must drop exactly the event/progress
// backlog while keeping resync and snapshot-chunk frames in their original
// per-watch order, prefixed by one overflow resync per live watch.
func TestOverflowPreservesRecoveryFrameOrder(t *testing.T) {
	reg := metrics.NewRegistry()
	sc := &serverConn{
		met: newServerMetrics(reg),
		watches: map[uint64]serverWatch{
			1: {cancel: func() {}, rng: keyspace.Full()},
			2: {cancel: func() {}, rng: keyspace.Full()},
		},
	}
	sc.cond = sync.NewCond(&sc.mu)
	sc.spaceCond = sync.NewCond(&sc.mu)

	evFrame := func(id uint64, n int) outFrame {
		p := getEvs(n)
		for i := 0; i < n; i++ {
			*p = append(*p, core.ChangeEvent{Version: core.Version(i + 1)})
		}
		return outFrame{tag: tagEventBatch, id: id, evs: p}
	}
	sc.queue = []outFrame{
		evFrame(1, 3),
		{tag: tagResync, id: 1, resync: core.ResyncEvent{Reason: "first"}},
		{tag: tagProgress, id: 2, prog: core.ProgressEvent{Version: 9}},
		{tag: tagSnapChunk, id: 1, chunk: &snapChunk{ID: 1, At: 5}},
		evFrame(2, 4),
		{tag: tagResync, id: 1, resync: core.ResyncEvent{Reason: "second"}},
		{tag: tagSnapChunk, id: 1, chunk: &snapChunk{ID: 1, At: 6, Last: true}},
	}
	sc.queuedEvs = 8

	sc.mu.Lock()
	sc.overflowLocked()
	kept := append([]outFrame(nil), sc.queue...)
	queuedEvs := sc.queuedEvs
	sc.mu.Unlock()

	if queuedEvs != 0 {
		t.Fatalf("queuedEvs = %d after overflow, want 0", queuedEvs)
	}
	// Prefix: one overflow resync per live watch (map order unspecified).
	if len(kept) != 6 {
		t.Fatalf("kept %d frames, want 6 (2 overflow resyncs + 4 recovery frames)", len(kept))
	}
	prefix := map[uint64]bool{}
	for _, f := range kept[:2] {
		if f.tag != tagResync || !contains(f.resync.Reason, "overflow") {
			t.Fatalf("overflow prefix frame = %+v, want overflow resync", f)
		}
		prefix[f.id] = true
	}
	if !prefix[1] || !prefix[2] {
		t.Fatalf("overflow resyncs cover watches %v, want {1,2}", prefix)
	}
	// Suffix: the surviving recovery frames in original order.
	wantTail := []struct {
		tag    uint8
		reason string
		at     core.Version
	}{
		{tagResync, "first", 0},
		{tagSnapChunk, "", 5},
		{tagResync, "second", 0},
		{tagSnapChunk, "", 6},
	}
	for i, want := range wantTail {
		f := kept[2+i]
		if f.tag != want.tag {
			t.Fatalf("kept[%d].tag = %d, want %d", 2+i, f.tag, want.tag)
		}
		if want.tag == tagResync && f.resync.Reason != want.reason {
			t.Fatalf("kept[%d] resync reason %q, want %q", 2+i, f.resync.Reason, want.reason)
		}
		if want.tag == tagSnapChunk && f.chunk.At != want.at {
			t.Fatalf("kept[%d] chunk At %d, want %d", 2+i, f.chunk.At, want.at)
		}
	}
	if got := reg.Snapshot().Counters["remote_server_overflow_resyncs_total"]; got != 2 {
		t.Fatalf("remote_server_overflow_resyncs_total = %d, want 2", got)
	}
}

// gatedSink wraps a SyncedConsumer with a stall switch: while held, the
// client's read loop blocks in the consumer, which is exactly how a slow
// application backs the transport up.
type gatedSink struct {
	inner core.SyncedConsumer
	hold  atomic.Bool
}

func (g *gatedSink) ResetSnapshot(r keyspace.Range, entries []core.Entry, at core.Version) {
	g.inner.ResetSnapshot(r, entries, at)
}

func (g *gatedSink) ApplyChange(ev core.ChangeEvent) {
	for g.hold.Load() {
		time.Sleep(time.Millisecond)
	}
	g.inner.ApplyChange(ev)
}

func (g *gatedSink) AdvanceFrontier(p core.ProgressEvent) { g.inner.AdvanceFrontier(p) }

// TestPostOverflowResumeConverges is the end-to-end half of the overflow
// coverage: a stalled consumer backs the server's outbox past its bound, the
// overflow resync flows once the stall lifts, the ResyncWatcher recovers by
// snapshot, and a subsequent sever/reconnect converges again.
func TestPostOverflowResumeConverges(t *testing.T) {
	reg := metrics.NewRegistry()
	ws := mvcc.NewWatchableStore(core.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 17, Metrics: reg})
	defer ws.Close()
	srv, err := ServeWith("127.0.0.1:0", ws, ws, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctrl := NewChaosController(ChaosConfig{})
	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics:   reg,
		Reconnect: fastReconnect(),
		Dialer:    ctrl.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sink := &mapSink{mu: &sync.Mutex{}, state: make(map[keyspace.Key]string)}
	gate := &gatedSink{inner: sink}
	rw := core.NewResyncWatcher(client, client, keyspace.Full(), gate)
	if err := rw.Start(); err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()

	converged := func() bool {
		entries, _, err := ws.SnapshotRange(keyspace.Full())
		if err != nil {
			return false
		}
		sink.mu.Lock()
		defer sink.mu.Unlock()
		if len(sink.state) != len(entries) {
			return false
		}
		for _, e := range entries {
			if sink.state[e.Key] != string(e.Value) {
				return false
			}
		}
		return true
	}

	for i := 0; i < 50; i++ {
		ws.Put(keyspace.NumericKey(i), []byte("seed"))
	}
	waitUntil(t, "initial convergence", func() bool { return converged() })

	// Stall the consumer and flood well past the outbox bound: the server
	// must lag this connection out with an overflow resync, not block. The
	// values are large enough that the flood cannot hide in kernel socket
	// buffers — the writer has to stall and the outbox has to fill.
	gate.hold.Store(true)
	val := make([]byte, 1024)
	for i := 0; i < 4*outboundLimit; i++ {
		ws.Put(keyspace.NumericKey(i%200), val)
	}
	waitUntil(t, "outbox overflow", func() bool {
		return reg.Snapshot().Counters["remote_server_overflow_resyncs_total"] >= 1
	})
	gate.hold.Store(false)
	waitUntil(t, "resync recovery", func() bool { return rw.Resyncs() >= 1 && converged() })

	// Now kill the connection outright: reconnect-resume must converge too.
	dials := ctrl.Dials()
	ctrl.SeverAll()
	waitUntil(t, "reconnect", func() bool { return ctrl.Dials() > dials })
	for i := 0; i < 50; i++ {
		ws.Put(keyspace.NumericKey(i), []byte("after-sever"))
	}
	waitUntil(t, "post-sever convergence", func() bool { return converged() })
}
