package remote

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/coretest"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
)

// fillStore commits n keys with distinct valSize-byte values, 64 to a commit.
func fillStore(t *testing.T, st *mvcc.Store, n, valSize int, tag string) {
	t.Helper()
	for base := 0; base < n; base += 64 {
		if _, err := st.Commit(func(tx *mvcc.Tx) error {
			for i := base; i < min(base+64, n); i++ {
				v := bytes.Repeat([]byte{byte(i)}, valSize)
				copy(v, fmt.Sprintf("%s-%d", tag, i))
				tx.Put(keyspace.NumericKey(i), v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// cloneEntries deep-copies a snapshot so it can be compared against later.
func cloneEntries(entries []core.Entry) []core.Entry {
	out := make([]core.Entry, len(entries))
	for i, e := range entries {
		out[i] = core.Entry{Key: keyspace.Key(strings.Clone(string(e.Key))), Value: bytes.Clone(e.Value), Version: e.Version}
	}
	return out
}

// TestChaosSnapshotSurvivesSever cuts the connection twice in the middle of a
// streamed snapshot (a read byte budget on the first two connections): the
// client re-issues the read on each fresh connection and the caller gets the
// store's snapshot — whole, no entry from an abandoned stream left in front
// of it or repeated.
func TestChaosSnapshotSurvivesSever(t *testing.T) {
	checkLeaks := coretest.GoroutineLeakGuard(t, 3)
	reg := metrics.NewRegistry()
	ws := mvcc.NewWatchableStore(core.HubConfig{Metrics: reg})
	fillStore(t, ws.Store, 6000, 200, "v") // ~1.4 MB on the wire, 6 chunks
	srv, err := ServeWith("127.0.0.1:0", ws, ws, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	severing := NewChaosController(ChaosConfig{DropAfterReadBytes: 400 << 10})
	clean := NewChaosController(ChaosConfig{})
	var dials atomic.Int64
	client, err := DialWith(srv.Addr(), ClientConfig{
		Metrics:   reg,
		Reconnect: fastReconnect(),
		Dialer: func(addr string) (net.Conn, error) {
			if dials.Add(1) <= 2 {
				return severing.Dialer()(addr)
			}
			return clean.Dialer()(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	got, at, err := client.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	want, wantAt, err := ws.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	if at != wantAt || len(got) != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot across severs: %d entries at %v, store has %d at %v", len(got), at, len(want), wantAt)
	}
	if n := reg.Snapshot().Counters["remote_client_reconnects_total"]; n != 2 {
		t.Fatalf("%d reconnects, want 2: the byte budget never cut a stream", n)
	}

	client.Close()
	srv.Close()
	ws.Close()
	checkLeaks()
}

// gcOnce wraps a store's cursors so that, while armed, the second Next of a
// snapshot first commits and collects past the cursor's pinned version — a GC
// landing mid-stream, on cue.
type gcOnce struct {
	*mvcc.WatchableStore
	armed atomic.Bool
}

func (g *gcOnce) SnapshotCursor(r keyspace.Range) core.SnapshotCursor {
	return &gcOnceCursor{SnapshotCursor: g.Store.SnapshotCursor(r), g: g}
}

type gcOnceCursor struct {
	core.SnapshotCursor
	g     *gcOnce
	calls int
}

func (c *gcOnceCursor) Next(buf []core.Entry) ([]core.Entry, bool, error) {
	if c.calls++; c.calls == 2 && c.g.armed.CompareAndSwap(true, false) {
		c.g.GCBefore(c.g.Put("late", []byte("arrival")))
	}
	return c.SnapshotCursor.Next(buf)
}

// TestChaosRecoveryRetriesGCMidStream: the recovery snapshot a resync
// triggers loses its pinned version to a GC between two chunks. The server
// ends the stream with an error chunk, the client drops the prefix it had,
// and ResyncWatcher.recover retries until the consumer holds the store's
// state.
func TestChaosRecoveryRetriesGCMidStream(t *testing.T) {
	checkLeaks := coretest.GoroutineLeakGuard(t, 3)
	reg := metrics.NewRegistry()
	g := &gcOnce{WatchableStore: mvcc.NewWatchableStore(core.HubConfig{Metrics: reg})}
	fillStore(t, g.Store, 3000, 16, "v") // 3 chunks
	srv, err := ServeWith("127.0.0.1:0", g, g, ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialWith(srv.Addr(), ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	state := map[keyspace.Key]string{}
	rw := core.NewResyncWatcher(client, client, keyspace.Full(), &mapSink{mu: &mu, state: state})
	if err := rw.Start(); err != nil {
		t.Fatal(err)
	}

	// Watch returns before the server has registered it; an event coming
	// through shows there is a watcher for Wipe to resync.
	g.Put("live", []byte("yes"))
	waitUntil(t, "watch established", func() bool { mu.Lock(); defer mu.Unlock(); return state["live"] == "yes" })

	g.armed.Store(true)
	g.Hub().Wipe() // resync → recovery snapshot → GC mid-stream → retry
	waitUntil(t, "recovery converged after the failed snapshot", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return state["late"] == "arrival"
	})
	if g.armed.Load() {
		t.Fatal("the GC never fired: no snapshot reached its second chunk")
	}
	// Initial snapshot, the one that died mid-stream, and at least one retry.
	if n := reg.Snapshot().Counters["remote_client_snapshots_total"]; n < 3 {
		t.Fatalf("%d snapshot reads, want >= 3", n)
	}
	want, _, err := g.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(state) != len(want) {
		t.Fatalf("consumer holds %d keys, store %d", len(state), len(want))
	}
	for _, e := range want {
		if state[e.Key] != string(e.Value) {
			t.Fatalf("consumer has %q = %q, store %q", string(e.Key), state[e.Key], e.Value)
		}
	}
	mu.Unlock()

	rw.Stop()
	client.Close()
	srv.Close()
	g.Close()
	checkLeaks()
}

// TestSnapshotPayloadIsolation: what a snapshot handed its caller stays what
// it was — after a later snapshot has been through the same pooled chunk
// buffers and decoder scratch, and after the store has committed over and
// collected every key in it.
func TestSnapshotPayloadIsolation(t *testing.T) {
	ws, _, client := newPair(t)
	fillStore(t, ws.Store, 2500, 24, "old")
	first, _, err := client.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	held := cloneEntries(first)

	fillStore(t, ws.Store, 2500, 24, "new")
	ws.GCBefore(ws.CurrentVersion())
	second, _, err := client.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 2500 || !bytes.HasPrefix(second[0].Value, []byte("new-0")) {
		t.Fatalf("second snapshot = %d entries, first value %q", len(second), second[0].Value)
	}
	if !reflect.DeepEqual(first, held) {
		t.Fatal("the first snapshot's entries changed under its holder")
	}
}

// TestSnapshotEndsOnEmptyChunk: a store whose last chunk comes back full —
// the cursor does not look ahead — is closed by an empty last chunk, which
// the client must take as "complete", not as "nothing".
func TestSnapshotEndsOnEmptyChunk(t *testing.T) {
	ws, _, client := newPair(t)
	fillStore(t, ws.Store, 2*snapChunkEntries, 8, "v")
	want, at, err := ws.Store.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	got, gotAt, err := client.SnapshotRange(keyspace.Full())
	if err != nil || gotAt != at || !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %d entries at %v, err %v; want %d at %v", len(got), gotAt, err, len(want), at)
	}
}

// countingStore counts the entries its cursors have handed out.
type countingStore struct {
	*mvcc.Store
	pulled atomic.Int64
}

func (c *countingStore) SnapshotCursor(r keyspace.Range) core.SnapshotCursor {
	return &countingCursor{SnapshotCursor: c.Store.SnapshotCursor(r), n: &c.pulled}
}

type countingCursor struct {
	core.SnapshotCursor
	n *atomic.Int64
}

func (c *countingCursor) Next(buf []core.Entry) ([]core.Entry, bool, error) {
	got, done, err := c.SnapshotCursor.Next(buf)
	c.n.Add(int64(len(got)))
	return got, done, err
}

// TestSnapshotStreamerHoldsOnlyTheBacklog shows O(chunk) on the server with a
// count, not a timing: behind a connection whose writer never runs, the
// streamer stops pulling from the store once the chunk backlog bound is
// reached — it never holds the snapshot — and a commit issued while it waits
// goes through, because a waiting cursor holds no lock.
func TestSnapshotStreamerHoldsOnlyTheBacklog(t *testing.T) {
	const entries, valSize = 60 * snapChunkEntries, 100
	entryBytes := len(keyspace.NumericKey(0)) + valSize + 16
	chunkBytes := snapChunkEntries * entryBytes
	if chunkBytes >= snapChunkBytes {
		t.Fatal("test entries too large: chunks must close on the entry bound")
	}
	cs := &countingStore{Store: mvcc.NewStore()}
	fillStore(t, cs.Store, entries, valSize, "v")

	local, peer := net.Pipe()
	defer peer.Close()
	sc := &serverConn{conn: local, met: newServerMetrics(metrics.NewRegistry()), done: make(chan struct{})}
	sc.cond = sync.NewCond(&sc.mu)
	sc.spaceCond = sync.NewCond(&sc.mu)
	s := &Server{snap: cs, met: sc.met}
	s.wg.Add(1)
	go s.streamSnapshot(sc, snapshotReq{ID: 1, High: keyspace.Inf})

	waitUntil(t, "streamer up against the backlog bound", func() bool {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.chunkBytes > snapBacklogBytes
	})
	committed := make(chan struct{})
	go func() {
		cs.Put("while-streaming", []byte("v"))
		close(committed)
	}()
	select {
	case <-committed:
	case <-time.After(5 * time.Second):
		t.Fatal("commit blocked behind a waiting snapshot streamer")
	}
	// The streamer may pull the one chunk it then blocks on; give it the time.
	time.Sleep(20 * time.Millisecond)
	pulled := int(cs.pulled.Load())
	if limit := (snapBacklogBytes + 2*chunkBytes) / entryBytes; pulled > limit || pulled >= entries {
		t.Fatalf("streamer pulled %d of %d entries behind a stalled writer, bound is %d", pulled, entries, limit)
	}

	sc.die()
	s.wg.Wait()
	if n := int(cs.pulled.Load()); n != pulled {
		t.Fatalf("streamer pulled %d more entries after blocking", n-pulled)
	}
}
