package mvcc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

func TestViewClipsRange(t *testing.T) {
	s := NewStore()
	s.Put(keyspace.NumericKey(5), []byte("in"))
	s.Put(keyspace.NumericKey(500), []byte("secret"))

	v := NewView(s, keyspace.NumericRange(0, 100), nil)
	entries, _, err := v.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != keyspace.NumericKey(5) {
		t.Fatalf("view leaked: %v", entries)
	}
	// Disjoint request yields nothing.
	entries, _, _ = v.SnapshotRange(keyspace.NumericRange(400, 600))
	if len(entries) != 0 {
		t.Fatalf("disjoint request leaked: %v", entries)
	}
}

func TestViewTransformProjectsValues(t *testing.T) {
	s := NewStore()
	s.Put("user/1", []byte("name=ada;ssn=123"))
	s.Put("user/2", []byte("name=bob;ssn=456"))
	s.Put("user/3", []byte("hidden"))

	// Expose only the name field; drop entries without one.
	v := NewView(s, keyspace.Prefix("user/"), func(e core.Entry) (core.Entry, bool) {
		i := bytes.Index(e.Value, []byte(";"))
		if i < 0 || !bytes.HasPrefix(e.Value, []byte("name=")) {
			return core.Entry{}, false
		}
		e.Value = e.Value[:i]
		return e, true
	})
	entries, _, err := v.SnapshotRange(keyspace.Full())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %v", entries)
	}
	for _, e := range entries {
		if strings.Contains(string(e.Value), "ssn") {
			t.Fatalf("view exposed internals: %q", e.Value)
		}
	}
}

func TestViewCDCTransformsAndDeletes(t *testing.T) {
	s := NewStore()
	v := NewView(s, keyspace.Prefix("user/"), func(e core.Entry) (core.Entry, bool) {
		if bytes.Equal(e.Value, []byte("hide")) {
			return core.Entry{}, false
		}
		e.Value = append([]byte("pub:"), e.Value...)
		return e, true
	})
	var mu sync.Mutex
	var events []core.ChangeEvent
	v.AttachCDC(ingesterFuncs{
		append: func(ev core.ChangeEvent) error {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			return nil
		},
		progress: func(core.ProgressEvent) error { return nil },
	})
	s.Put("user/1", []byte("x"))
	s.Put("user/1", []byte("hide")) // view drops it → consumers see delete
	s.Put("other", []byte("out of view"))
	s.Delete("user/1")

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	if string(events[0].Mut.Value) != "pub:x" {
		t.Fatalf("transform not applied: %q", events[0].Mut.Value)
	}
	if events[1].Mut.Op != core.OpDelete {
		t.Fatalf("hidden entry must surface as delete: %v", events[1])
	}
	if events[2].Mut.Op != core.OpDelete {
		t.Fatalf("raw delete passes through: %v", events[2])
	}
}

func TestWatchableStoreEndToEnd(t *testing.T) {
	ws := NewWatchableStore(core.HubConfig{})
	defer ws.Close()

	ws.Put("a", []byte("1"))
	entries, at, err := ws.SnapshotRange(keyspace.Full())
	if err != nil || len(entries) != 1 {
		t.Fatalf("snapshot = %v, %v", entries, err)
	}

	var mu sync.Mutex
	var got []core.ChangeEvent
	cancel, err := ws.Watch(keyspace.Full(), at, core.Funcs{
		Event: func(ev core.ChangeEvent) { mu.Lock(); got = append(got, ev); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	ws.Put("b", []byte("2"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch event not delivered")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Key != "b" || string(got[0].Mut.Value) != "2" {
		t.Fatalf("event = %v", got[0])
	}
	if ws.Hub().Stats().Appends != 2 {
		t.Fatalf("hub appends = %d", ws.Hub().Stats().Appends)
	}
}

// TestCommitAllocatesWhatItStores pins the write path's allocation budget on
// the shape live_local runs: an 8-key commit over existing keys, through the
// built-in hub to 8 range watchers, allocates two objects per written key —
// the value copy and the version record — and nothing per commit.
func TestCommitAllocatesWhatItStores(t *testing.T) {
	const nKeys, perTxn, watchers = 1024, 8, 8
	ws := NewWatchableStore(core.HubConfig{Retention: 256, Metrics: metrics.NewRegistry()})
	defer ws.Close()
	keys := make([]keyspace.Key, nKeys)
	for i := range keys {
		keys[i] = keyspace.NumericKey(i)
		ws.Put(keys[i], []byte("seed"))
	}
	var delivered atomic.Int64
	for _, r := range keyspace.EvenSplit(nKeys, watchers) {
		cancel, err := ws.Watch(r, ws.CurrentVersion(), core.Funcs{
			Event: func(core.ChangeEvent) { delivered.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
	}
	val := make([]byte, 64)
	var off int
	var sent int64
	txFn := func(tx *Tx) error {
		for i := 0; i < perTxn; i++ {
			tx.Put(keys[off+i], val)
		}
		return nil
	}
	commit := func() {
		off = (off + 61*perTxn) % (nKeys - perTxn)
		if _, err := ws.Commit(txFn); err != nil {
			t.Fatal(err)
		}
		// Wait the watchers out, so that no ring fills and every run pays
		// for its own deliveries.
		for sent += perTxn; delivered.Load() < sent; {
			runtime.Gosched()
		}
	}
	// Let the hub's retention window fill and its segment pool start
	// recycling before counting.
	for i := 0; i < 256; i++ {
		commit()
	}
	if n := testing.AllocsPerRun(200, commit); n != 2*perTxn {
		t.Fatalf("an %d-key commit allocated %v objects, want %d", perTxn, n, 2*perTxn)
	}
}

// TestLateAttachedHubResyncsAResume: a hub attached to a store already at
// version 10 holds none of versions 1–10. A watch from 5 must resync; before
// the store announced where its feed starts, it received k11@11 and a
// frontier at 11 — a claim that it was complete through versions it never
// saw. The store, a plain view and a transforming view each announce it.
func TestLateAttachedHubResyncsAResume(t *testing.T) {
	attachers := map[string]func(*Store, core.Ingester) func(){
		"store": func(s *Store, ing core.Ingester) func() { return s.AttachCDC(keyspace.Full(), ing) },
		"view": func(s *Store, ing core.Ingester) func() {
			return NewView(s, keyspace.Full(), nil).AttachCDC(ing)
		},
		"transforming view": func(s *Store, ing core.Ingester) func() {
			return NewView(s, keyspace.Full(), func(e core.Entry) (core.Entry, bool) { return e, true }).AttachCDC(ing)
		},
	}
	for name, attach := range attachers {
		t.Run(name, func(t *testing.T) {
			s := NewStore()
			for i := 1; i <= 10; i++ {
				s.Put(keyspace.Key(fmt.Sprintf("k%d", i)), []byte("v"))
			}
			h := core.NewHub(core.HubConfig{Metrics: metrics.NewRegistry()})
			defer h.Close()
			defer attach(s, h)()
			var mu sync.Mutex
			var log []string
			note := func(format string, args ...any) {
				mu.Lock()
				log = append(log, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			cancel, err := h.Watch(keyspace.Full(), 5, core.Funcs{
				Event:    func(ev core.ChangeEvent) { note("event %s@%d", ev.Key, ev.Version) },
				Progress: func(p core.ProgressEvent) { note("progress %d", p.Version) },
				Resync:   func(r core.ResyncEvent) { note("resync %d", r.MinVersion) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			s.Put("k11", []byte("v"))
			deadline := time.Now().Add(5 * time.Second)
			for {
				mu.Lock()
				n := len(log)
				mu.Unlock()
				if n > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(log) == 0 || log[0] != "resync 10" {
				t.Fatalf("watch from v5 on a hub attached at v10 got %v, want a resync at 10 first", log)
			}
		})
	}
}
