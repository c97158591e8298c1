package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// orderLog is the source side of the ordering model: every event the test
// has appended, in version order. The test claims progress only through
// versions whose events are all in it, as the store's CDC tap does.
type orderLog struct {
	mu  sync.Mutex
	evs []ChangeEvent
}

type evID struct {
	key keyspace.Key
	ver Version
}

// orderSink is one watcher's side of the model. Each callback checks the
// delivery contract against the source log, and the first violation is kept
// for runProgressOrderSeed to report (callbacks run on the dispatch
// goroutine, where a test may not fail).
type orderSink struct {
	src   *orderLog
	rng   keyspace.Range
	from  Version
	stall *rand.Rand // non-nil: this consumer stalls at random

	mu        sync.Mutex
	err       string
	got       map[evID]bool
	last      map[keyspace.Key]Version
	told      VersionMap // every claim announced so far, merged
	resynced  bool
	cancelled bool
}

func (s *orderSink) failf(format string, args ...any) {
	if s.err == "" {
		s.err = fmt.Sprintf("watch %v from %v: ", s.rng, s.from) + fmt.Sprintf(format, args...)
	}
}

func (s *orderSink) pause() {
	if s.stall != nil && s.stall.Intn(4) == 0 {
		time.Sleep(time.Duration(s.stall.Intn(300)) * time.Microsecond)
	}
}

// event records one delivery; the caller holds s.mu.
func (s *orderSink) event(ev ChangeEvent) {
	id := evID{ev.Key, ev.Version}
	switch {
	case s.resynced:
		s.failf("event %q@%v after a resync", ev.Key, ev.Version)
	case !s.rng.Contains(ev.Key) || ev.Version <= s.from:
		s.failf("event %q@%v outside the watch", ev.Key, ev.Version)
	case ev.Version <= s.last[ev.Key]:
		s.failf("event %q@%v after @%v", ev.Key, ev.Version, s.last[ev.Key])
	}
	s.got[id] = true
	s.last[ev.Key] = ev.Version
}

func (s *orderSink) OnEvent(ev ChangeEvent) {
	s.pause()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.event(ev)
}

// OnProgress checks the claim against everything the source has appended:
// no in-range event at or below it may still be undelivered, and it must
// tell the watcher something it was not already told.
func (s *orderSink) OnProgress(p ProgressEvent) {
	s.pause()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.resynced:
		s.failf("progress %v@%v after a resync", p.Range, p.Version)
		return
	case p.Range.Intersect(s.rng) != p.Range:
		s.failf("progress over %v outside the watch", p.Range)
		return
	case s.told.MinOver(p.Range) >= p.Version:
		s.failf("progress %v@%v announced twice (told %v)", p.Range, p.Version, &s.told)
		return
	}
	s.told.Raise(p.Range, p.Version)
	s.src.mu.Lock()
	defer s.src.mu.Unlock()
	if n := len(s.src.evs); n == 0 || s.src.evs[n-1].Version < p.Version {
		s.failf("progress %v@%v ahead of the source", p.Range, p.Version)
		return
	}
	for _, ev := range s.src.evs {
		if ev.Version > p.Version {
			break
		}
		if ev.Version > s.from && p.Range.Contains(ev.Key) && !s.got[evID{ev.Key, ev.Version}] {
			s.failf("progress %v@%v before event %q@%v", p.Range, p.Version, ev.Key, ev.Version)
			return
		}
	}
}

func (s *orderSink) OnResync(ResyncEvent) {
	s.mu.Lock()
	s.resynced = true
	s.mu.Unlock()
}

// orderBatchSink is an orderSink taking the batch hand-off.
type orderBatchSink struct{ *orderSink }

func (b orderBatchSink) OnEventBatch(evs []ChangeEvent) {
	b.pause()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ev := range evs {
		b.event(ev)
	}
}

// settled reports whether the sink has reached its final state: resynced,
// cancelled, or holding every in-range event the source appended and told
// exactly the hub's frontier clipped to its range.
func (s *orderSink) settled(frontier *VersionMap) (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != "" || s.resynced || s.cancelled {
		return true, s.err
	}
	var want []RangeVersion
	for _, seg := range frontier.Segments() {
		if c := seg.Range.Intersect(s.rng); !c.Empty() {
			want = appendSegment(want, c, seg.Version)
		}
	}
	told := s.told.Segments()
	if len(told) != len(want) {
		return false, fmt.Sprintf("told %v, frontier over %v is %v", &s.told, s.rng, want)
	}
	for i := range want {
		if told[i] != want[i] {
			return false, fmt.Sprintf("told %v, frontier over %v is %v", &s.told, s.rng, want)
		}
	}
	s.src.mu.Lock()
	defer s.src.mu.Unlock()
	for _, ev := range s.src.evs {
		if ev.Version > s.from && s.rng.Contains(ev.Key) && !s.got[evID{ev.Key, ev.Version}] {
			return false, fmt.Sprintf("event %q@%v never delivered", ev.Key, ev.Version)
		}
	}
	return true, ""
}

// runProgressOrderSeed drives one seeded interleaving of commits, progress
// claims, watches from retained versions, cancels and wipes against a hub
// whose watchers' dispatchers run concurrently, then waits for every watcher
// to settle. It returns the first contract violation, or "".
func runProgressOrderSeed(seed int64, shards int) string {
	rng := rand.New(rand.NewSource(seed))
	h := NewHub(HubConfig{Shards: shards, Retention: 1 << 12, WatcherBuffer: 32, Metrics: metrics.NewRegistry()})
	defer h.Close()
	src := &orderLog{}
	randRange := func() keyspace.Range {
		if rng.Intn(4) == 0 {
			return keyspace.Full()
		}
		a, b := rng.Intn(4000), rng.Intn(4000)
		if a > b {
			a, b = b, a
		}
		return keyspace.NumericRange(a, b+1)
	}
	var sinks []*orderSink
	var cancels []Cancel
	var cur, horizon Version // horizon: the hub retains history after it
	for op := 0; op < 200; op++ {
		switch n := rng.Intn(100); {
		case n < 45: // a commit, then usually its progress claim
			cur++
			batch := make([]ChangeEvent, 0, 6)
			seen := map[keyspace.Key]bool{}
			for i := rng.Intn(6); i >= 0; i-- {
				k := keyspace.NumericKey(rng.Intn(4000))
				if !seen[k] {
					seen[k] = true
					batch = append(batch, ChangeEvent{Key: k, Mut: Mutation{Op: OpPut}, Version: cur})
				}
			}
			src.mu.Lock()
			src.evs = append(src.evs, batch...)
			src.mu.Unlock()
			if err := h.AppendBatch(batch); err != nil {
				return err.Error()
			}
			if rng.Intn(4) > 0 {
				if err := h.Progress(ProgressEvent{Range: keyspace.Full(), Version: cur}); err != nil {
					return err.Error()
				}
			}
		case n < 70:
			if err := h.Progress(ProgressEvent{Range: randRange(), Version: cur}); err != nil {
				return err.Error()
			}
		case n < 82:
			s := &orderSink{src: src, rng: randRange(), got: map[evID]bool{}, last: map[keyspace.Key]Version{}}
			s.from = horizon + Version(rng.Int63n(int64(cur-horizon)+1))
			if len(sinks) == 0 {
				s.stall = rand.New(rand.NewSource(seed))
			}
			var cb WatchCallback = s
			if rng.Intn(2) == 0 {
				cb = orderBatchSink{s}
			}
			cancel, err := h.Watch(s.rng, s.from, cb)
			if err != nil {
				return err.Error()
			}
			sinks, cancels = append(sinks, s), append(cancels, cancel)
		case n < 92:
			if len(sinks) > 0 {
				i := rng.Intn(len(sinks))
				cancels[i]()
				sinks[i].mu.Lock()
				sinks[i].cancelled = true
				sinks[i].mu.Unlock()
			}
		case n < 95:
			h.Wipe()
			horizon = cur
		default:
			runtime.Gosched()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range sinks {
		for {
			ok, why := s.settled(h.Frontier())
			if ok && why != "" {
				return why
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return "did not settle: " + why
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, s := range sinks {
		s.mu.Lock()
		why := s.err
		s.mu.Unlock()
		if why != "" {
			return why
		}
	}
	return ""
}

// TestHubProgressNeverPassesUndeliveredEvent is the delivery property as a
// model check over seeded random interleavings, at one shard and at four:
// no watcher is told progress (r, v) while an event in r at or below v is
// undelivered, no claim is announced twice, and every open watcher ends
// told exactly the hub's frontier over its range, holding every event.
func TestHubProgressNeverPassesUndeliveredEvent(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 30; seed++ {
			if why := runProgressOrderSeed(seed, shards); why != "" {
				t.Fatalf("shards=%d seed=%d: %s", shards, seed, why)
			}
		}
	}
}
