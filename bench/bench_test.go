package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// The quantile must sit within 1 % of the exact order statistic on skewed
// samples; taken from sorted raw samples it is exact, which a count proves.
func TestQuantileSkewedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 1001, 50_000} {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(math.Exp(rng.NormFloat64()*2+10)) + 1 // log-normal: long right tail
		}
		slices.Sort(s)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got := quantile(s, q)
			atOrBelow, below := 0, 0
			for _, v := range s {
				if v <= got {
					atOrBelow++
				}
				if v < got {
					below++
				}
			}
			if float64(atOrBelow) < q*float64(n) || float64(below) >= q*float64(n) {
				t.Errorf("n=%d q=%v: %d has %d below and %d at or below it", n, q, got, below, atOrBelow)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// driver uses; the expected values below were computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20, 35, 50, 80, 95, 100, 130, 150, 200, 210}, [3]float64{35, 95, 150}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The open-loop schedule is computed from its origin: whatever the tick
// pattern, the commits issued by a time are exactly those due by it.
func TestOpenLoopSchedule(t *testing.T) {
	for _, w := range workloads {
		if w.pacedRate == 0 {
			continue
		}
		// Due counts at tick boundaries.
		perTick := int64(w.pacedRate) * int64(tickLen) / 1e9
		for k := int64(0); k <= 750; k++ {
			if got := dueCount(k*int64(tickLen), w.pacedRate); got != k*perTick {
				t.Fatalf("%s: %d due after %d ticks, want %d", w.name, got, k, k*perTick)
			}
		}
		// Irregular, late wake-ups issue the same total: no drift.
		rng := rand.New(rand.NewSource(3))
		var now, issued int64
		for now < int64(sliceLen) {
			now += int64(tickLen) + rng.Int63n(int64(9*tickLen))
			due := dueCount(min(now, int64(sliceLen)), w.pacedRate)
			for ; issued < due; issued++ {
				if at := dueAt(issued, w.pacedRate); at > now {
					t.Fatalf("%s: commit %d issued at %d before it is due at %d", w.name, issued, now, at)
				}
			}
		}
		if want := int64(w.pacedRate) * int64(sliceLen) / 1e9; issued != want {
			t.Errorf("%s: %d commits in a slice, want %d", w.name, issued, want)
		}
		if got := dueCount(dueAt(12_345, w.pacedRate), w.pacedRate); got != 12_345 {
			t.Errorf("%s: dueCount(dueAt(12345)) = %d", w.name, got)
		}
	}
	if n := slicesFor(24*time.Second, 2); n != 7 {
		t.Errorf("24 s over two phases gives %d slices, want 7", n)
	}
	if n := slicesFor(time.Second, 2); n != 1 {
		t.Errorf("a budget too small for one slice gives %d, want 1", n)
	}
}

// Lockstep targets: a commit books exactly the deliveries it causes, per key
// range, also when its keys straddle two watchers' ranges.
func TestExpectBooksDeliveriesPerRange(t *testing.T) {
	count, sum := make([]int64, 8), make([]uint64, 8)
	per := numKeys / 8
	if got := expect(per-3, 42, 8, 8, count, sum); got != keysPerTxn {
		t.Errorf("8 disjoint watchers: %d deliveries per commit, want %d", got, keysPerTxn)
	}
	if count[0] != 3 || count[1] != 5 {
		t.Errorf("straddling commit booked %v, want 3 in range 0 and 5 in range 1", count)
	}
	var want uint64
	for k := per; k < per+5; k++ {
		want += mix(uint64(k), 42)
	}
	if sum[1] != want {
		t.Errorf("range 1 checksum %x, want %x", sum[1], want)
	}
	one, oneSum := make([]int64, 1), make([]uint64, 1)
	if got := expect(numKeys-keysPerTxn, 7, 1, 64, one, oneSum); got != 64*keysPerTxn || one[0] != keysPerTxn {
		t.Errorf("64 full-range watchers: %d deliveries, %d booked per watcher", got, one[0])
	}
}

func event(k int, v uint64) (keyspace.Key, uint64, []byte) {
	val := make([]byte, valueSize)
	binary.LittleEndian.PutUint64(val, v)
	return keyspace.NumericKey(k), v, val
}

// The checker counts every way a stream can break the contract.
func TestCheckerSettle(t *testing.T) {
	var wantSum uint64
	feed := func(c *checker, evs ...[2]uint64) {
		for _, e := range evs {
			c.observe(event(int(e[0]), e[1]))
		}
	}
	good := [][2]uint64{{5, 1}, {6, 1}, {5, 2}, {99_999, 3}}
	for _, e := range good {
		wantSum += mix(e[0], e[1])
	}
	c := newChecker()
	feed(&c, good...)
	if f := c.settle(4, wantSum); f != 0 {
		t.Errorf("correct stream: %d failed", f)
	}
	feed(&c, good[:3]...) // a later slice starts a fresh count; key 5 must move past version 2
	if f := c.settle(3, wantSum); f == 0 {
		t.Error("replayed versions were not flagged as out of order")
	}
	c = newChecker()
	feed(&c, good[:3]...)
	if f := c.settle(4, wantSum); f != 1 {
		t.Errorf("one missing delivery: %d failed, want 1", f)
	}
	c = newChecker()
	feed(&c, good...)
	feed(&c, good[3])
	if f := c.settle(4, wantSum); f < 1 {
		t.Error("duplicate delivery was not flagged")
	}
	c = newChecker()
	feed(&c, [2]uint64{5, 2}, [2]uint64{5, 1})
	if f := c.settle(2, mix(5, 2)+mix(5, 1)); f != 1 {
		t.Errorf("per-key order violation: %d failed, want 1", f)
	}
	c = newChecker()
	k, v, val := event(5, 1)
	val[0] ^= 1
	c.observe(k, v, val)
	c.observe("not-a-key", 1, val)
	if f := c.settle(2, 0); f != 2 {
		t.Errorf("corrupt value and foreign key: %d failed, want 2", f)
	}
	// A fresh watch (new epoch) may see the same versions again.
	c = newChecker()
	feed(&c, good...)
	c.settle(4, wantSum)
	c.epoch++
	feed(&c, good...)
	if f := c.settle(4, wantSum); f != 0 {
		t.Errorf("fresh epoch: %d failed", f)
	}
}

func TestSnapshotSum(t *testing.T) {
	var entries []core.Entry
	var want uint64
	for k := 0; k < 100; k++ {
		key, v, val := event(k, uint64(k%7+1))
		entries = append(entries, core.Entry{Key: key, Value: val, Version: core.Version(v)})
		want += mix(uint64(k), v)
	}
	if got, ok := snapshotSum(entries); !ok || got != want {
		t.Errorf("snapshotSum = %x, %v; want %x, true", got, ok, want)
	}
	entries[3].Version++
	if _, ok := snapshotSum(entries); ok {
		t.Error("a value that disagrees with its version was accepted")
	}
}

// The producer blocks until the last owed delivery, however they interleave.
func TestLockstepWait(t *testing.T) {
	h := &harness{done: make(chan struct{}, 1), abort: make(chan struct{})}
	for round := 0; round < 100; round++ {
		h.pending.Add(64)
		for g := 0; g < 4; g++ {
			go func() {
				for i := 0; i < 16; i++ {
					h.delivered()
				}
			}()
		}
		if err := h.wait(); err != nil {
			t.Fatal(err)
		}
		if p := h.pending.Load(); p != 0 {
			t.Fatalf("wait returned with %d deliveries pending", p)
		}
	}
	h.pending.Add(1)
	h.fail("resynced")
	if err := h.wait(); err == nil || err.Error() != "resynced" {
		t.Errorf("wait after a failure returned %v", err)
	}
}

// Self time is the span minus what its children cover inside it: children
// are clipped to the parent and overlapping children count once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: spCommit, start: 0, end: 100},
		{id: 2, parent: 1, name: spAppend, start: 10, end: 30},
		{id: 3, parent: 1, name: spAppend, start: 20, end: 50},         // overlaps span 2
		{id: 4, parent: 1, name: spProgress, start: 90, end: 120},      // runs past the parent
		{id: 5, parent: 1, name: spProgress, start: -10, end: 5},       // starts before the parent
		{id: 6, parent: 2, name: spDispatchWait, start: 15, end: 20},   // nested: a grandchild
		{id: 7, parent: 1, name: spDispatchWait, start: 100, end: 140}, // wholly after the parent
		{id: 8, parent: 99, name: spEnqueue, start: 0, end: 7},         // parent not in the set
		{id: 9, parent: 3, name: spTransit, start: 25, end: 45},
		{id: 10, parent: 3, name: spTransit, start: 30, end: 40}, // inside its sibling
	}
	rand.New(rand.NewSource(1)).Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	self, count := selfTimes(spans)
	want := map[uint8][2]int64{
		spCommit:       {100 - (40 + 10 + 5), 1},
		spAppend:       {(20 - 5) + (30 - 20), 2},
		spProgress:     {30 + 15, 2},
		spDispatchWait: {5 + 40, 2},
		spEnqueue:      {7, 1},
		spTransit:      {20 + 10, 2},
	}
	for name, w := range want {
		if self[name] != w[0] || count[name] != w[1] {
			t.Errorf("%s: self %d over %d spans, want %d over %d", spanNames[name], self[name], count[name], w[0], w[1])
		}
	}
}

func TestSpanRingKeepsTheNewest(t *testing.T) {
	r := newSpanRing(8)
	open := r.begin(spCommit, 0, 1, 0, 5)
	for i := 0; i < 5; i++ {
		r.add(spAppend, 0, uint64(i), open, int64(i), int64(i)+1)
	}
	got := r.since(0, nil)
	if len(got) != 5 { // the open span has no end yet
		t.Fatalf("%d finished spans, want 5", len(got))
	}
	r.finish(open, 9)
	mark := r.next.Load()
	for i := 0; i < 20; i++ {
		r.add(spProgress, 0, uint64(i), 0, int64(i), int64(i)+2)
	}
	got = r.since(mark, nil)
	if len(got) != 8 || got[0].trace != 12 || got[7].trace != 19 {
		t.Fatalf("after wrapping: %d spans, traces %d..%d; want the newest 8", len(got), got[0].trace, got[len(got)-1].trace)
	}
	r.finish(open, 11) // its slot was reused: must not touch the new owner
	for _, s := range r.since(mark, nil) {
		if s.end != int64(s.trace)+2 {
			t.Errorf("finish of an overwritten span changed its slot's new owner: %+v", s)
		}
	}
}

func TestTraceFlagParsesBothSpellings(t *testing.T) {
	for in, want := range map[string]traceMode{"0": traceOff, "false": traceOff, "1": traceOn, "true": traceOn} {
		var m traceMode
		if err := m.Set(in); err != nil || m != want {
			t.Errorf("Set(%q) = %v, %v", in, m, err)
		}
	}
	var m traceMode
	if m.Set("maybe") == nil {
		t.Error(`Set("maybe") did not fail`)
	}
}

func TestKeyIndexInvertsNumericKey(t *testing.T) {
	for _, k := range []int{0, 7, 12_499, 99_999} {
		if got := keyIndex(keyspace.NumericKey(k)); got != k {
			t.Errorf("keyIndex(NumericKey(%d)) = %d", k, got)
		}
	}
	for _, k := range []keyspace.Key{"", "12", "00000010000x", keyspace.NumericKey(numKeys)} {
		if got := keyIndex(k); got != -1 {
			t.Errorf("keyIndex(%q) = %d, want -1", k, got)
		}
	}
}
