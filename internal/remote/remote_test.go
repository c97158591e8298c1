package remote

import (
	"strings"
	"sync"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/coretest"
	"unbundle/internal/keyspace"
	"unbundle/internal/mvcc"
)

// TestConformanceOverTCP runs the full Watchable conformance suite across a
// real TCP connection: a remote watch system must be indistinguishable from
// a local one.
func TestConformanceOverTCP(t *testing.T) {
	coretest.Run(t, "remote-over-tcp", func(cfg core.HubConfig) coretest.Env {
		ws := mvcc.NewWatchableStore(cfg)
		srv, err := Serve("127.0.0.1:0", ws, ws)
		if err != nil {
			t.Fatal(err)
		}
		client, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var restarted []func()
		return coretest.Env{
			Watch: client,
			Put:   func(k keyspace.Key, v []byte) core.Version { return ws.Put(k, v) },
			KeyOf: func(ev core.ChangeEvent) keyspace.Key { return ev.Key },
			// A restarted server: a new hub over the same store, served anew.
			Restart: func() core.Watchable {
				hub := core.NewHub(cfg)
				detach := ws.Store.AttachCDC(keyspace.Full(), hub)
				srv, err := Serve("127.0.0.1:0", hub, ws)
				if err != nil {
					t.Fatal(err)
				}
				client, err := Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				restarted = append(restarted, client.Close, srv.Close, detach, hub.Close)
				return client
			},
			Close: func() {
				for _, c := range restarted {
					c()
				}
				client.Close()
				srv.Close()
				ws.Close()
			},
		}
	})
}

func newPair(t *testing.T) (*mvcc.WatchableStore, *Server, *Client) {
	t.Helper()
	ws := mvcc.NewWatchableStore(core.HubConfig{})
	srv, err := Serve("127.0.0.1:0", ws, ws)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		ws.Close()
	})
	return ws, srv, client
}

func TestRemoteSnapshotRange(t *testing.T) {
	ws, _, client := newPair(t)
	ws.Put("a", []byte("1"))
	ws.Put("b", []byte("2"))
	entries, at, err := client.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || at != ws.CurrentVersion() {
		t.Fatalf("snapshot = %v @%v", entries, at)
	}
	// Clipped snapshot.
	entries, _, err = client.SnapshotRange(keyspace.Point("a"))
	if err != nil || len(entries) != 1 || entries[0].Key != "a" {
		t.Fatalf("point snapshot = %v err=%v", entries, err)
	}
}

func TestRemoteResyncWatcherEndToEnd(t *testing.T) {
	// The full §4.4 loop against a remote watch system: the client is both
	// the Watchable and the Snapshotter for a ResyncWatcher.
	ws, _, client := newPair(t)
	ws.Put("k", []byte("v1"))

	var mu sync.Mutex
	state := map[keyspace.Key]string{}
	rw := core.NewResyncWatcher(client, client, keyspace.Full(), &mapSink{mu: &mu, state: state})
	if err := rw.Start(); err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()

	mu.Lock()
	if state["k"] != "v1" {
		mu.Unlock()
		t.Fatal("initial remote snapshot missing")
	}
	mu.Unlock()
	ws.Put("k", []byte("v2"))
	waitUntil(t, "remote event applied", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return state["k"] == "v2"
	})
}

func TestRemoteConnectionLossResyncsWatches(t *testing.T) {
	ws, srv, client := newPair(t)
	var mu sync.Mutex
	var resyncs []core.ResyncEvent
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Resync: func(r core.ResyncEvent) {
			mu.Lock()
			resyncs = append(resyncs, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ws.Put("k", []byte("1"))

	srv.Close() // the server dies
	waitUntil(t, "loss resync", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(resyncs) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(resyncs[0].Reason, "connection lost") {
		t.Fatalf("resync reason = %q", resyncs[0].Reason)
	}
}

func TestRemoteWatchRejectionBecomesResync(t *testing.T) {
	// Server-side watch rejection (e.g. pre-eviction version) arrives as a
	// resync, the uniform recovery signal.
	ws := mvcc.NewWatchableStore(core.HubConfig{Retention: 4})
	defer ws.Close()
	for i := 0; i < 50; i++ {
		ws.Put("k", []byte{byte(i)})
	}
	srv, err := Serve("127.0.0.1:0", ws, ws)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var mu sync.Mutex
	var resyncs []core.ResyncEvent
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Resync: func(r core.ResyncEvent) { mu.Lock(); resyncs = append(resyncs, r); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitUntil(t, "resync", func() bool { mu.Lock(); defer mu.Unlock(); return len(resyncs) == 1 })
}

func TestRemoteMultipleClients(t *testing.T) {
	ws, srv, c1 := newPair(t)
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	count := func(c *Client) func() int {
		var mu sync.Mutex
		n := 0
		cancel, err := c.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
			Event: func(core.ChangeEvent) { mu.Lock(); n++; mu.Unlock() },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cancel)
		return func() int { mu.Lock(); defer mu.Unlock(); return n }
	}
	n1 := count(c1)
	n2 := count(c2)
	for i := 0; i < 20; i++ {
		ws.Put(keyspace.NumericKey(i), []byte("v"))
	}
	waitUntil(t, "both clients", func() bool { return n1() == 20 && n2() == 20 })
}

func TestClientClosedErrors(t *testing.T) {
	_, _, client := newPair(t)
	client.Close()
	client.Close() // idempotent
	if _, err := client.Watch(keyspace.Full(), 0, core.Funcs{}); err != ErrClientClosed {
		t.Fatalf("watch after close = %v", err)
	}
	if _, _, err := client.SnapshotRange(keyspace.Full()); err != ErrClientClosed {
		t.Fatalf("snapshot after close = %v", err)
	}
	if _, err := client.Watch(keyspace.Range{}, 0, core.Funcs{}); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := client.Watch(keyspace.Full(), 0, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
}

// mapSink is a trivial SyncedConsumer for the end-to-end test.
type mapSink struct {
	mu    *sync.Mutex
	state map[keyspace.Key]string
}

func (m *mapSink) ResetSnapshot(r keyspace.Range, entries []core.Entry, at core.Version) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k := range m.state {
		if r.Contains(k) {
			delete(m.state, k)
		}
	}
	for _, e := range entries {
		m.state[e.Key] = string(e.Value)
	}
}

func (m *mapSink) ApplyChange(ev core.ChangeEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.Mut.Op == core.OpDelete {
		delete(m.state, ev.Key)
		return
	}
	m.state[ev.Key] = string(ev.Mut.Value)
}

func (m *mapSink) AdvanceFrontier(core.ProgressEvent) {}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
