package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
//
// A seeded half of the commits enter folded — events and claim in one
// AppendCommit — drawn from a stream of their own, so the rest of the
// interleaving is the one the unfolded arm draws. The test models the
// frontier from the claims it makes, and settling requires the hub's
// frontier to be exactly that model: a hub that drops a claim's raise fails
// here even when no watcher is left to notice.
//
// With readers set, the interleaving is biased toward the reader path: most
// watches are full-range, every consumer stalls at random, the buffer is
// small enough that stalled readers lag out mid-stream, and a cancel
// usually lands right after a commit has woken every dispatcher.
func runProgressOrderSeed(seed int64, readers bool) string {
	rng := rand.New(rand.NewSource(seed))
	cfg := HubConfig{Retention: 1 << 12, WatcherBuffer: 32, Metrics: metrics.NewRegistry()}
	if readers {
		cfg.Retention, cfg.WatcherBuffer = 256, 24
	}
	h := NewHub(cfg)
	defer h.Close()
	src := &orderLog{}
	folds := rand.New(rand.NewSource(^seed))
	var claimed VersionMap // every claim made since the last wipe
	claim := func(p ProgressEvent) ProgressEvent {
		claimed.Raise(p.Range, p.Version)
		return p
	}
	// A full-range watch reads the hub's log.
	randRange := func() keyspace.Range {
		if rng.Intn(4) == 0 || readers && rng.Intn(3) > 0 {
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
	commit := func() string {
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
		claims := rng.Intn(4) > 0
		if folds.Intn(2) == 0 { // a folded commit always claims
			if err := h.AppendCommit(batch, claim(ProgressEvent{Range: keyspace.Full(), Version: cur})); err != nil {
				return err.Error()
			}
			return ""
		}
		if err := h.AppendBatch(batch); err != nil {
			return err.Error()
		}
		if claims {
			if err := h.Progress(claim(ProgressEvent{Range: keyspace.Full(), Version: cur})); err != nil {
				return err.Error()
			}
		}
		return ""
	}
	for op := 0; op < 200; op++ {
		switch n := rng.Intn(100); {
		case n < 45: // a commit, then usually its progress claim
			if why := commit(); why != "" {
				return why
			}
		case n < 70:
			if err := h.Progress(claim(ProgressEvent{Range: randRange(), Version: cur})); err != nil {
				return err.Error()
			}
		case n < 82:
			s := &orderSink{src: src, rng: randRange(), got: map[evID]bool{}, last: map[keyspace.Key]Version{}}
			s.from = horizon + Version(rng.Int63n(int64(cur-horizon)+1))
			if len(sinks) == 0 || readers {
				s.stall = rand.New(rand.NewSource(seed + int64(len(sinks))))
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
			if len(sinks) == 0 {
				break
			}
			picked := []int{rng.Intn(len(sinks))}
			if readers {
				// Cancel while commits take the hub lock the cancels take
				// and wake the dispatchers they race.
				for k := rng.Intn(3); k > 0; k-- {
					picked = append(picked, rng.Intn(len(sinks)))
				}
				var wg sync.WaitGroup
				for _, i := range picked {
					wg.Add(1)
					go func(c Cancel) { c(); wg.Done() }(cancels[i])
				}
				// A slow ingest call: the hub lock held while the cancels
				// and the dispatchers wait for it.
				wg.Add(1)
				go func(d time.Duration) {
					h.mu.Lock()
					time.Sleep(d)
					h.mu.Unlock()
					wg.Done()
				}(time.Duration(rng.Intn(100)) * time.Microsecond)
				for k := rng.Intn(8); k >= 0; k-- {
					if why := commit(); why != "" {
						return why
					}
				}
				wg.Wait()
			} else {
				cancels[picked[0]]()
			}
			for _, i := range picked {
				sinks[i].mu.Lock()
				sinks[i].cancelled = true
				sinks[i].mu.Unlock()
			}
		case n < 95:
			h.Wipe()
			horizon, claimed = cur, VersionMap{}
		default:
			runtime.Gosched()
		}
	}
	if got := h.Frontier(); !slices.Equal(got.Segments(), claimed.Segments()) {
		return fmt.Sprintf("hub frontier %v, claimed %v", got, &claimed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range sinks {
		for {
			ok, why := s.settled(&claimed)
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
// model check over seeded random interleavings: no watcher is told progress
// (r, v) while an event in r at or below v is undelivered, no claim is
// announced twice, and every open watcher ends told exactly the hub's
// frontier over its range, holding every event.
//
// The readers arm is accepted by mutation. Each mutation below ran 20 times
// against the whole sweep (30 ring seeds, 60 readers seeds), logging every
// failing seed; interleavings are timing-dependent, so a seed catches a
// mutation often, not always:
//   - delivery of a capture stops at a lag-out (deliverRun returns at its
//     first event after the watcher is lagged): 27–41 seed-runs failed in
//     each of the 20 runs, readers seeds 4, 8, 36, 37, 41 and 52 in all;
//   - the dispatcher captures before it reads the frontier: 1–9 a run, in
//     20 of 20 runs, most often ring seeds 13 and 24 and readers seed 24;
//   - cancel drops the reader before it stops the ring: caught in only 4
//     of 20 runs (readers seeds 28, 29 and 59), because under one lock the
//     window is a few instructions wide. TestCancelStopsRingBeforeDetaching
//     pins that order deterministically and fails 20 of 20 runs under it.
//
// Two mutations the sweep was once accepted against were deleted with
// in-process hub sharding: a first pass raising every shard's frontier
// before a second appended the events, and a shard holding none of a
// commit's events skipping its raise. The hub now raises once, after it
// appends, in the same lock hold.
func TestHubProgressNeverPassesUndeliveredEvent(t *testing.T) {
	for _, readers := range []bool{false, true} {
		seeds := int64(30)
		if readers {
			seeds = 60
		}
		for seed := int64(1); seed <= seeds; seed++ {
			if why := runProgressOrderSeed(seed, readers); why != "" {
				t.Fatalf("readers=%v seed=%d: %s", readers, seed, why)
			}
		}
	}
}
