package core

import (
	"fmt"
	"testing"

	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// TestHubReplayExactlyWatcherBufferSucceeds pins the replay-overflow
// boundary: a retained-window replay of exactly the watcher's buffer size
// must deliver cleanly, and one event more must lag the watcher out with a
// resync. The boundary is the off-lock stream's budget check, and it must not
// be off by one.
func TestHubReplayExactlyWatcherBufferSucceeds(t *testing.T) {
	const buffer = 16
	reg := metrics.NewRegistry()
	h := NewHub(HubConfig{Retention: 64, WatcherBuffer: buffer, Metrics: reg})
	defer h.Close()
	for i := 1; i <= buffer; i++ {
		h.Append(put("k", Version(i)))
	}

	var c collector
	cancel, err := h.Watch(keyspace.Full(), 0, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitUntil(t, "exact-buffer replay", func() bool {
		evs, _, _ := c.snapshot()
		return len(evs) == buffer
	})
	evs, _, rs := c.snapshot()
	if len(rs) != 0 {
		t.Fatalf("replay of exactly WatcherBuffer events resynced: %+v", rs[0])
	}
	for i, ev := range evs {
		if ev.Version != Version(i+1) {
			t.Fatalf("event %d has version %v, want %d", i, ev.Version, i+1)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core_hub_replay_overflow_total"]; got != 0 {
		t.Fatalf("core_hub_replay_overflow_total = %d, want 0", got)
	}
	if got := snap.Counters["core_hub_replay_events_total"]; got != buffer {
		t.Fatalf("core_hub_replay_events_total = %d, want %d", got, buffer)
	}

	// One event past the buffer: the next full-history watch overflows, and
	// what it saw before the resync is a clean prefix.
	h.Append(put("k", Version(buffer+1)))
	var c2 collector
	cancel2, err := h.Watch(keyspace.Full(), 0, &c2)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	waitUntil(t, "buffer+1 replay resync", func() bool {
		_, _, rs := c2.snapshot()
		return len(rs) == 1
	})
	evs2, _, rs2 := c2.snapshot()
	if len(evs2) > buffer {
		t.Fatalf("overflowing replay delivered %d events, want <= %d", len(evs2), buffer)
	}
	for i, ev := range evs2 {
		if ev.Version != Version(i+1) {
			t.Fatalf("overflow prefix event %d has version %v, want %d", i, ev.Version, i+1)
		}
	}
	if rs2[0].MinVersion != Version(buffer+1) {
		t.Fatalf("resync MinVersion = %v, want %d", rs2[0].MinVersion, buffer+1)
	}
	if got := reg.Snapshot().Counters["core_hub_replay_overflow_total"]; got != 1 {
		t.Fatalf("core_hub_replay_overflow_total = %d, want 1", got)
	}
}

// TestHubResumeAtSegmentSealBoundary covers resume cuts landing exactly on
// segment seal boundaries: the last version of a sealed segment (the whole
// segment is skipped by its maxVer bound), the first version inside one (a
// binary-search cut at position 1), and the window's newest version (nothing
// replays; the watcher rides the live stream).
func TestHubResumeAtSegmentSealBoundary(t *testing.T) {
	const retention = 512
	h := NewHub(HubConfig{Retention: retention, WatcherBuffer: 1024, Metrics: metrics.NewRegistry()})
	defer h.Close()
	segSize := h.segPool.size
	if segSize != 64 {
		t.Fatalf("segPool.size = %d, want 64 (test assumes Retention/8)", segSize)
	}
	total := 4 * segSize // fills four segments exactly; three are sealed
	for i := 1; i <= total; i++ {
		h.Append(put("k", Version(i)))
	}
	s := h
	s.mu.Lock()
	if len(s.segs) != 4 {
		s.mu.Unlock()
		t.Fatalf("segment chain length = %d, want 4", len(s.segs))
	}
	first := s.segs[0]
	if !first.sealed || !first.sorted || first.minVer != 1 || first.maxVer != Version(segSize) {
		s.mu.Unlock()
		t.Fatalf("segment 0 index = sealed:%v sorted:%v [%v,%v], want sealed sorted [1,%d]",
			first.sealed, first.sorted, first.minVer, first.maxVer, segSize)
	}
	s.mu.Unlock()

	check := func(from Version) {
		t.Helper()
		var c collector
		cancel, err := h.Watch(keyspace.Full(), from, &c)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		want := total - int(from)
		waitUntil(t, fmt.Sprintf("replay from %d", from), func() bool {
			evs, _, _ := c.snapshot()
			return len(evs) == want
		})
		evs, _, rs := c.snapshot()
		if len(rs) != 0 {
			t.Fatalf("resume from %d resynced: %+v", from, rs[0])
		}
		for i, ev := range evs {
			if ev.Version != from+Version(i+1) {
				t.Fatalf("resume from %d: event %d has version %v, want %v", from, i, ev.Version, from+Version(i+1))
			}
		}
	}
	check(Version(2 * segSize)) // exactly the last version of sealed segment 2
	check(Version(segSize + 1)) // exactly the first version inside segment 2
	check(1)                    // one past the window's oldest event

	// Cut at the newest version: nothing replays, the live stream follows.
	var c collector
	cancel, err := h.Watch(keyspace.Full(), Version(total), &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	h.Append(put("k", Version(total+1)))
	waitUntil(t, "live event after empty replay", func() bool {
		evs, _, _ := c.snapshot()
		return len(evs) == 1
	})
	evs, _, rs := c.snapshot()
	if len(rs) != 0 || evs[0].Version != Version(total+1) {
		t.Fatalf("resume at window head: events %+v resyncs %+v", evs, rs)
	}
}

// TestHubReplaySegmentKeySummarySkip: a sealed segment whose key summary
// cannot intersect the watcher's range is skipped whole, and the filter is
// conservative — everything the watcher should see still arrives.
func TestHubReplaySegmentKeySummarySkip(t *testing.T) {
	h := NewHub(HubConfig{Retention: 512, WatcherBuffer: 1024, Metrics: metrics.NewRegistry()})
	defer h.Close()
	segSize := h.segPool.size
	v := Version(0)
	fill := func(prefix string) {
		for i := 0; i < segSize; i++ {
			v++
			h.Append(put(fmt.Sprintf("%s%03d", prefix, i), v))
		}
	}
	fill("a")               // segment 1: keys a000..a063
	fill("b")               // segment 2: keys b000..b063
	h.Append(put("c", v+1)) // seals segment 2

	s := h
	s.mu.Lock()
	aSeg, bSeg := s.segs[0], s.segs[1]
	bRange := keyspace.Range{Low: "b", High: "c"}
	if aSeg.overlaps(bRange) {
		s.mu.Unlock()
		t.Fatalf("segment [%q,%q] claims overlap with [b,c)", aSeg.minKey, aSeg.maxKey)
	}
	if !bSeg.overlaps(bRange) {
		s.mu.Unlock()
		t.Fatalf("segment [%q,%q] claims no overlap with [b,c)", bSeg.minKey, bSeg.maxKey)
	}
	s.mu.Unlock()

	var c collector
	cancel, err := h.Watch(bRange, 0, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitUntil(t, "b-range replay", func() bool {
		evs, _, _ := c.snapshot()
		return len(evs) == segSize
	})
	evs, _, rs := c.snapshot()
	if len(rs) != 0 {
		t.Fatalf("unexpected resync: %+v", rs[0])
	}
	for i, ev := range evs {
		if ev.Version != Version(segSize+i+1) {
			t.Fatalf("event %d has version %v, want %d", i, ev.Version, segSize+i+1)
		}
	}
}

// TestHubReplayBatchDispatch: the catch-up stream hands contiguous runs to a
// batch-capable callback as whole OnEventBatch calls, never via OnEvent —
// the zero-copy hand-off the remote transport rides.
func TestHubReplayBatchDispatch(t *testing.T) {
	h := NewHub(HubConfig{Retention: 512, WatcherBuffer: 1024, Metrics: metrics.NewRegistry()})
	defer h.Close()
	const n = 100
	for i := 1; i <= n; i++ {
		h.Append(put("k", Version(i)))
	}
	sink := &batchSink{}
	cancel, err := h.Watch(keyspace.Full(), 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitUntil(t, "batched replay", func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return len(sink.events) == n
	})
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.singles != 0 {
		t.Fatalf("replay dispatched %d events via OnEvent, want 0 (all batched)", sink.singles)
	}
	if sink.batches == 0 {
		t.Fatal("replay dispatched no batches")
	}
	for i, ev := range sink.events {
		if ev.Version != Version(i+1) {
			t.Fatalf("event %d has version %v, want %d", i, ev.Version, i+1)
		}
	}
}

// TestHubReplayTraceStage: replayed events complete their traces through the
// replay stage, with no live enqueue stamp — the alternation Complete()
// accepts.
func TestHubReplayTraceStage(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.New(trace.Config{SampleEvery: 1, Metrics: reg})
	h := NewHub(HubConfig{Tracer: tracer, Metrics: reg})
	defer h.Close()
	const n = 20
	for i := 1; i <= n; i++ {
		ev := put("k", Version(i))
		ev.Trace = tracer.Begin(ev.Key, uint64(i))
		h.Append(ev)
	}
	var c collector
	cancel, err := h.Watch(keyspace.Full(), 0, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitUntil(t, "traced replay", func() bool { return tracer.CompletedCount() >= n })
	for _, tr := range tracer.Completed() {
		if !tr.Complete() {
			t.Fatalf("replayed trace incomplete: %+v", tr)
		}
		if tr.Stages[trace.StageReplay] == 0 {
			t.Fatalf("replayed trace missing replay stamp: %+v", tr)
		}
		if tr.Stages[trace.StageEnqueue] != 0 {
			t.Fatalf("replayed trace carries a live enqueue stamp: %+v", tr)
		}
		if tr.Stages[trace.StageReplay] < tr.Stages[trace.StageAppend] {
			t.Fatalf("replay stamped before append: %+v", tr)
		}
	}
}
