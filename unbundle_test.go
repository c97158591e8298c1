package unbundle_test

import (
	"fmt"
	"testing"
	"time"

	"unbundle"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the README
// documents it: store, transactions, views, snapshot-then-watch, knowledge,
// broker, sharder.
func TestPublicAPIEndToEnd(t *testing.T) {
	store := unbundle.NewWatchableStore(unbundle.HubConfig{})
	defer store.Close()

	// Writes and a transaction.
	store.Put("account/alice", []byte("100"))
	if _, err := store.Commit(func(tx *unbundle.Tx) error {
		tx.Put("account/alice", []byte("80"))
		tx.Put("account/bob", []byte("70"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Snapshot.
	accounts := unbundle.PrefixRange("account/")
	entries, at, err := store.SnapshotRange(accounts)
	if err != nil || len(entries) != 2 {
		t.Fatalf("snapshot = %v err=%v", entries, err)
	}

	// Watch from the snapshot.
	events := make(chan unbundle.ChangeEvent, 16)
	cancel, err := store.Watch(accounts, at, unbundle.Callbacks{
		Event: func(ev unbundle.ChangeEvent) { events <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	store.Put("account/carol", []byte("10"))
	select {
	case ev := <-events:
		if ev.Key != "account/carol" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch event not delivered")
	}

	// A filtered view hides internals (§4.1).
	view := unbundle.NewView(store.Store, unbundle.PrefixRange("account/"),
		func(e unbundle.Entry) (unbundle.Entry, bool) {
			e.Value = []byte("REDACTED")
			return e, true
		})
	ventries, _, err := view.SnapshotRange(unbundle.FullRange())
	if err != nil || len(ventries) != 3 || string(ventries[0].Value) != "REDACTED" {
		t.Fatalf("view = %v err=%v", ventries, err)
	}

	// Knowledge regions.
	ks := unbundle.NewKnowledgeSet()
	ks.AddSnapshot(accounts, at)
	ks.ExtendTo(accounts, at+1)
	if v, ok := ks.StitchVersion(unbundle.PointRange("account/alice")); !ok || v != at+1 {
		t.Fatalf("stitch = %v/%v", v, ok)
	}
}

func TestPublicAPIBrokerAndSharder(t *testing.T) {
	broker := unbundle.NewBroker(unbundle.BrokerConfig{})
	defer broker.Close()
	if err := broker.CreateTopic("t", unbundle.TopicConfig{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	g, err := broker.Group("t", "g", unbundle.GroupConfig{StartAtEarliest: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.Join("m0")
	if err != nil {
		t.Fatal(err)
	}
	broker.Publish("t", "k", []byte("v"))
	msg, ok, err := c.Poll()
	if err != nil || !ok || string(msg.Value) != "v" {
		t.Fatalf("poll = %+v %v %v", msg, ok, err)
	}
	c.Ack(msg)

	shd := unbundle.NewSharder(unbundle.SharderConfig{InitialShards: 4}, "p0", "p1")
	defer shd.Close()
	owned := map[unbundle.Pod]int{}
	for i := 0; i < 4000; i += 13 {
		owned[shd.Owner(unbundle.Key(fmt.Sprintf("%012d", i)))]++
	}
	if len(owned) != 2 || owned[""] > 0 {
		t.Fatalf("ownership = %v", owned)
	}
}

func TestPublicAPIResyncWatcher(t *testing.T) {
	store := unbundle.NewWatchableStore(unbundle.HubConfig{Retention: 8})
	defer store.Close()
	for i := 0; i < 50; i++ {
		store.Put(unbundle.Key(fmt.Sprintf("k%02d", i%5)), []byte{byte(i)})
	}
	sink := &mapConsumer{mu: make(chan struct{}, 1), data: map[unbundle.Key][]byte{}}
	rw := unbundle.NewResyncWatcher(store, store, unbundle.FullRange(), sink)
	if err := rw.Start(); err != nil {
		t.Fatal(err)
	}
	defer rw.Stop()
	// Initial snapshot fully populates the consumer despite tiny retention.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sink.len() == 5 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("consumer holds %d keys, want 5", sink.len())
}

type mapConsumer struct {
	mu   chan struct{} // 1-slot mutex keeps the example dependency-free
	data map[unbundle.Key][]byte
}

func (m *mapConsumer) lock()   { m.mu <- struct{}{} }
func (m *mapConsumer) unlock() { <-m.mu }

func (m *mapConsumer) ResetSnapshot(r unbundle.Range, entries []unbundle.Entry, at unbundle.Version) {
	m.lock()
	defer m.unlock()
	for k := range m.data {
		if r.Contains(k) {
			delete(m.data, k)
		}
	}
	for _, e := range entries {
		m.data[e.Key] = e.Value
	}
}

func (m *mapConsumer) ApplyChange(ev unbundle.ChangeEvent) {
	m.lock()
	defer m.unlock()
	if ev.Mut.Op == unbundle.OpDelete {
		delete(m.data, ev.Key)
		return
	}
	m.data[ev.Key] = ev.Mut.Value
}

func (m *mapConsumer) AdvanceFrontier(unbundle.ProgressEvent) {}

func (m *mapConsumer) len() int {
	m.lock()
	defer m.unlock()
	return len(m.data)
}

func TestPublicAPIExtensions(t *testing.T) {
	// Remote watch over TCP through the facade.
	store := unbundle.NewWatchableStore(unbundle.HubConfig{})
	defer store.Close()
	srv, err := unbundle.ServeWatch("127.0.0.1:0", store, store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := unbundle.DialWatch(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	store.Put("k", []byte("v"))
	entries, _, err := client.SnapshotRange(unbundle.FullRange())
	if err != nil || len(entries) != 1 {
		t.Fatalf("remote snapshot = %v err=%v", entries, err)
	}
}
