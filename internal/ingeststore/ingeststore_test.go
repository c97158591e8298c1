package ingeststore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

func TestAppendAssignsMonotonicSeq(t *testing.T) {
	s := NewStore(Config{})
	var last core.Version
	for i := 0; i < 10; i++ {
		ev := s.Append("sensor/1", []byte{byte(i)})
		if ev.Seq <= last {
			t.Fatalf("seq not monotonic: %v after %v", ev.Seq, last)
		}
		last = ev.Seq
	}
	if s.CurrentSeq() != last {
		t.Fatalf("CurrentSeq = %v, want %v", s.CurrentSeq(), last)
	}
}

func TestEventKeyOrderMatchesSeq(t *testing.T) {
	var prev keyspace.Key
	for seq := core.Version(1); seq < 1000; seq += 37 {
		k := EventKey("s", seq)
		if k <= prev {
			t.Fatalf("key order broken at seq %v", seq)
		}
		if !SeriesRange("s").Contains(k) {
			t.Fatalf("series range misses its own key %q", string(k))
		}
		prev = k
	}
	if SeriesRange("s").Contains(EventKey("s2", 1)) {
		t.Fatal("series range leaked into another series")
	}
}

func TestQuerySeriesAndAfter(t *testing.T) {
	s := NewStore(Config{})
	for i := 0; i < 5; i++ {
		s.Append("a", []byte(fmt.Sprintf("a%d", i)))
		s.Append("b", []byte(fmt.Sprintf("b%d", i)))
	}
	all := s.QuerySeries("a", 0, 0)
	if len(all) != 5 {
		t.Fatalf("series a = %d events", len(all))
	}
	after := s.QuerySeries("a", all[2].Seq, 0)
	if len(after) != 2 || string(after[0].Payload) != "a3" {
		t.Fatalf("after query = %v", after)
	}
	lim := s.QuerySeries("b", 0, 2)
	if len(lim) != 2 {
		t.Fatalf("limit ignored: %d", len(lim))
	}
}

func TestSnapshotRange(t *testing.T) {
	s := NewStore(Config{})
	s.Append("x", []byte("1"))
	s.Append("y", []byte("2"))
	entries, at, err := s.SnapshotRange(SeriesRange("x"))
	if err != nil || len(entries) != 1 || at != 2 {
		t.Fatalf("snapshot = %v @%v err=%v", entries, at, err)
	}
}

func TestRetentionGCExplicit(t *testing.T) {
	clock := clockwork.NewFake()
	s := NewStore(Config{Clock: clock, Retention: time.Hour})
	s.Append("s", []byte("old"))
	clock.Advance(2 * time.Hour)
	s.Append("s", []byte("new"))

	dropped := s.RunGC()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	evs := s.QuerySeries("s", 0, 0)
	if len(evs) != 1 || string(evs[0].Payload) != "new" {
		t.Fatalf("retained = %v", evs)
	}
	if st := s.Stats(); st.GCDropped != 1 || st.Retained != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// No retention configured: GC is a no-op.
	s2 := NewStore(Config{Clock: clock})
	s2.Append("s", nil)
	if s2.RunGC() != 0 {
		t.Fatal("GC ran without retention")
	}
}

func TestIngesterTapReceivesEvents(t *testing.T) {
	s := NewStore(Config{})
	var mu sync.Mutex
	var events []core.ChangeEvent
	var progress []core.ProgressEvent
	detach := s.AttachIngester(tapFuncs{
		app:  func(ev core.ChangeEvent) error { mu.Lock(); events = append(events, ev); mu.Unlock(); return nil },
		prog: func(p core.ProgressEvent) error { mu.Lock(); progress = append(progress, p); mu.Unlock(); return nil },
	})
	s.Append("s", []byte("1"))
	detach()
	s.Append("s", []byte("2"))

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || len(progress) != 1 {
		t.Fatalf("events=%d progress=%d", len(events), len(progress))
	}
	if events[0].Version != 1 || progress[0].Version != 1 {
		t.Fatalf("versions = %v / %v", events[0].Version, progress[0].Version)
	}
}

type tapFuncs struct {
	app  func(core.ChangeEvent) error
	prog func(core.ProgressEvent) error
}

func (f tapFuncs) Append(ev core.ChangeEvent) error    { return f.app(ev) }
func (f tapFuncs) Progress(p core.ProgressEvent) error { return f.prog(p) }

func (f tapFuncs) AppendBatch(evs []core.ChangeEvent) error {
	for _, ev := range evs {
		if err := f.app(ev); err != nil {
			return err
		}
	}
	return nil
}

func TestWatchableIngestStore(t *testing.T) {
	w := NewWatchable(Config{}, core.HubConfig{})
	defer w.Close()

	w.Append("sensor/1", []byte("a"))
	var mu sync.Mutex
	var got []core.ChangeEvent
	cancel, err := w.Watch(SeriesRange("sensor/1"), 0, core.Funcs{
		Event: func(ev core.ChangeEvent) { mu.Lock(); got = append(got, ev); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	w.Append("sensor/1", []byte("b"))
	w.Append("sensor/2", []byte("other series"))

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d events", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("series filter leaked: %v", got)
	}
	for _, ev := range got {
		if !SeriesRange("sensor/1").Contains(ev.Key) {
			t.Fatalf("out-of-series event %v", ev)
		}
	}
}

func TestWatchableResyncAfterRetention(t *testing.T) {
	clock := clockwork.NewFake()
	w := NewWatchable(Config{Clock: clock, Retention: time.Hour}, core.HubConfig{Retention: 8})
	defer w.Close()

	// Fill beyond hub retention before the watcher arrives, so watching from
	// 0 must resync rather than silently gap.
	for i := 0; i < 50; i++ {
		w.Append("s", []byte{byte(i)})
	}
	var mu sync.Mutex
	var resyncs []core.ResyncEvent
	cancel, err := w.Watch(keyspace.Full(), 0, core.Funcs{
		Resync: func(r core.ResyncEvent) { mu.Lock(); resyncs = append(resyncs, r); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(resyncs)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no resync for pre-eviction watch")
		}
		time.Sleep(time.Millisecond)
	}
	// The consumer recovers by querying the store: explicit, not silent.
	mu.Lock()
	min := resyncs[0].MinVersion
	mu.Unlock()
	entries, at, err := w.SnapshotRange(keyspace.Full())
	if err != nil || at < min {
		t.Fatalf("recovery snapshot at %v (< %v), err=%v", at, min, err)
	}
	if len(entries) != 50 {
		t.Fatalf("recovered %d entries", len(entries))
	}
}

func TestStartGCTickerDriven(t *testing.T) {
	clock := clockwork.NewFake()
	s := NewStore(Config{Clock: clock, Retention: time.Hour})
	stop := s.StartGC(time.Minute)
	defer stop()
	s.Append("s", []byte("old"))
	// Advance past retention in GC-interval steps so the ticker fires.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().GCDropped == 0 {
		clock.Advance(10 * time.Minute)
		if time.Now().After(deadline) {
			t.Fatal("background GC never dropped the old event")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

func TestAppendBatch(t *testing.T) {
	s := NewStore(Config{})
	var mu sync.Mutex
	var got []core.ChangeEvent
	var progress []core.ProgressEvent
	detach := s.AttachIngester(tapFuncs{
		app:  func(ev core.ChangeEvent) error { mu.Lock(); got = append(got, ev); mu.Unlock(); return nil },
		prog: func(p core.ProgressEvent) error { mu.Lock(); progress = append(progress, p); mu.Unlock(); return nil },
	})
	defer detach()

	evs := s.AppendBatch("sensor/1", [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if len(evs) != 3 {
		t.Fatalf("returned %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != core.Version(i+1) {
			t.Fatalf("event %d seq = %v", i, ev.Seq)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("tap saw %d change events", len(got))
	}
	for i, ev := range got {
		if ev.Version != core.Version(i+1) {
			t.Fatalf("change %d version = %v", i, ev.Version)
		}
	}
	// One progress mark for the whole batch, claiming through the last seq.
	if len(progress) != 1 || progress[0].Version != 3 {
		t.Fatalf("progress = %+v, want one claim at seq 3", progress)
	}
	if s.Stats().Appends != 3 {
		t.Fatalf("stats appends = %d", s.Stats().Appends)
	}
}
