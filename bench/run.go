package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

func (h *harness) ph() uint8 { return uint8(h.phase.Load()) }

// Running totals read at a slice's edges; a slice keeps their differences.
// The first five are the process's own accounting, the rest the layers'.
const (
	cAllocBytes = iota
	cMallocs
	cGCCycles
	cGCPauseNs
	cCPUNs
	cWireBytes
	cFrames
	cWireEvents
	cSnapChunks
	cFlightrec
	cAppendNs // from here on: the traced pass's wrappers
	cAppendEvents
	cProgressNs
	cProgressCalls
	cDispatchCalls
	cDispatchEvs
	cEnqueueNs
	cHubWatchNs
	cHubWatchCalls
	cReplayNs
	cReplayEvents
	cStoreSnapNs
	cStoreSnapEnts
	cClientReads
	numTotals
)

type totals [numTotals]int64

func (a totals) minus(b totals) totals {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a totals) plus(b totals) totals {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// readTotals reads every running total. ReadMemStats stops the world, so it
// is only ever called outside a slice's clock.
func (h *harness) readTotals() (t totals) {
	s := h.st
	t[cWireBytes] = s.counter("remote_server_bytes_total")
	t[cFrames] = s.counter("remote_server_frames_total")
	t[cWireEvents] = s.counter("remote_server_events_total")
	t[cSnapChunks] = s.counter("remote_server_snap_chunks_total")
	t[cFlightrec] = int64(s.rec.Recorded())
	if tr := h.tr; tr != nil {
		for i, c := range []*atomic.Int64{
			&tr.appendNs, &tr.appendEvents, &tr.progressNs, &tr.progressCalls,
			&tr.dispatchCalls, &tr.dispatchEvs, &tr.enqueueNs,
			&tr.hubWatchNs, &tr.hubWatchCalls, &tr.replayNs, &tr.replayEvents,
			&tr.storeSnapNs, &tr.storeSnapEnts, &tr.clientReads,
		} {
			t[cAppendNs+i] = c.Load()
		}
	}
	runtime.ReadMemStats(&h.ms)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &h.ru) // cannot fail for RUSAGE_SELF
	t[cAllocBytes], t[cMallocs] = int64(h.ms.TotalAlloc), int64(h.ms.Mallocs)
	t[cGCCycles], t[cGCPauseNs] = int64(h.ms.NumGC), int64(h.ms.PauseTotalNs)
	t[cCPUNs] = h.ru.Utime.Nano() + h.ru.Stime.Nano()
	return t
}

// sliceStats is what one timed slice measured.
type sliceStats struct {
	events    int64 // deliveries (or snapshot entries) that reached consumers
	ops       int64 // commits issued, or rounds completed
	elapsedNs int64
	d         totals // differences over the slice
	p50, p99  int64  // staleness, ns
	genLagP99 int64
	self      [numSpanNames]int64
	selfCount [numSpanNames]int64
	waitP50   int64 // core.dispatch_wait
	transP50  int64 // remote.transit
	watchP50  int64 // remote.watch_rtt
	snapP50   int64 // remote.snapshot_rtt
}

// timedSlice brackets body with the slice's accounting. Before the clock
// starts it trims MVCC history and collects garbage, so every slice begins
// from the same heap; after it stops, it settles the consumers' streams
// against what the producer booked.
func (h *harness) timedSlice(body func(deadline int64) (events, ops int64, err error)) (sliceStats, error) {
	var st sliceStats
	h.st.store.GCBefore(core.Version(h.st.head))
	runtime.GC()
	clear(h.expCount)
	clear(h.expSum)
	var mark uint32
	if h.tr != nil {
		h.tr.resetSamples()
		mark = h.tr.spans.next.Load()
	}
	before := h.readTotals()
	start := h.now()
	events, ops, err := body(start + int64(sliceLen))
	st.elapsedNs = h.now() - start
	st.d = h.readTotals().minus(before)
	if err != nil {
		return st, err
	}
	st.events, st.ops = events, ops
	samples := h.sortedSamples()
	st.p50, st.p99 = quantile(samples, 0.50), quantile(samples, 0.99)
	st.genLagP99, h.genLagP99 = h.genLagP99, 0
	if t := h.tr; t != nil {
		st.self, st.selfCount = selfTimes(t.spans.since(mark, h.spanBuf))
		st.waitP50 = quantile(t.dispatchWait.sorted(), 0.5)
		st.transP50 = quantile(t.transit.sorted(), 0.5)
		st.watchP50 = quantile(t.clientWatchRTT.sorted(), 0.5)
		st.snapP50 = quantile(t.clientSnapRT.sorted(), 0.5)
	}
	h.settleLive()
	return st, nil
}

// settleLive checks every live consumer's stream of the slice: exact count,
// per-key order, payloads and checksum.
func (h *harness) settleLive() {
	for i, c := range h.live {
		slot := i % h.w.slots
		h.attempted += h.expCount[slot]
		h.failed += c.chk.settle(h.expCount[slot], h.expSum[slot])
	}
}

// issue books and commits one transaction at a seeded-uniform offset.
func (h *harness) issue() error {
	off := h.rng.Intn(numKeys - keysPerTxn + 1)
	h.pending.Add(expect(off, h.st.head+1, h.w.slots, h.w.consumers, h.expCount, h.expSum))
	return h.commit(off)
}

// pacedSlice is the open loop: a fixed commit rate that does not slow when
// the system does. The generator wakes on a tick and issues everything due;
// each commit's clock starts just before its Commit, and how late that was
// against the schedule is kept as generator lag.
func (h *harness) pacedSlice(deadline int64) (events, ops int64, err error) {
	rate := h.w.pacedRate
	perCommit := int64(keysPerTxn * h.w.consumers / h.w.slots)
	tick := time.NewTicker(tickLen)
	defer tick.Stop()
	start := h.now()
	var issued int64
	for {
		select {
		case <-tick.C:
		case <-h.abort:
			return 0, 0, h.failure()
		}
		now := h.now()
		due := dueCount(min(now, deadline)-start, rate)
		for ; issued < due; issued++ {
			t := h.now()
			h.genLag[issued] = t - (start + dueAt(issued, rate))
			h.commitStart[(h.st.head+1)%stampSlots].Store(t)
			if err := h.issue(); err != nil {
				return 0, 0, err
			}
			runtime.Gosched() // one P: let the dispatchers run before the next commit
		}
		if now >= deadline {
			break
		}
	}
	if err := h.wait(); err != nil {
		return 0, 0, err
	}
	lag := h.genLag[:issued]
	slices.Sort(lag)
	h.genLagP99 = quantile(lag, 0.99)
	return issued * perCommit, issued, nil
}

// burstSlice is the closed loop: commit a burst, block until every delivery
// it owes has arrived, repeat. The load follows the system's speed, so
// deliveries per second is its throughput.
func (h *harness) burstSlice(deadline int64) (events, ops int64, err error) {
	for h.now() < deadline {
		for i := 0; i < h.w.burst; i++ {
			h.offs[i] = h.rng.Intn(numKeys - keysPerTxn + 1)
			events += expect(h.offs[i], h.st.head+1+uint64(i), h.w.slots, h.w.consumers, h.expCount, h.expSum)
		}
		h.pending.Add(int64(h.w.burst) * int64(keysPerTxn*h.w.consumers/h.w.slots))
		for i := 0; i < h.w.burst; i++ {
			if err := h.commit(h.offs[i]); err != nil {
				return 0, 0, err
			}
		}
		if err := h.wait(); err != nil {
			return 0, 0, err
		}
		ops += int64(h.w.burst)
	}
	return events, ops, nil
}

// catchupSlice is a closed loop of reconnect storms: every round, each watch
// slot registers from catchupCommits behind the head, the round ends when
// each has its whole backlog, and all are cancelled.
func (h *harness) catchupSlice(deadline int64) (events, ops int64, err error) {
	s := h.st
	from := core.Version(s.head - catchupCommits)
	var wantSum uint64
	for i, b := range s.lastBlock[len(s.lastBlock)-catchupCommits:] {
		v := s.head - catchupCommits + 1 + uint64(i)
		for k := range keysPerTxn {
			wantSum += mix(uint64(int(b)*keysPerTxn+k), v)
		}
	}
	for h.now() < deadline {
		round := h.round.Add(1)
		sampled := h.tr != nil && round%sampleEvery == 0
		h.pending.Add(int64(len(h.catchup)) * catchupEvents)
		for i, c := range h.catchup {
			c.chk.epoch = round
			c.t0 = h.now()
			if h.cancels[i], err = s.clients[i%numClients].Watch(keyspace.Full(), from, c); err != nil {
				return 0, 0, err
			}
			if h.tr != nil {
				t1 := h.now()
				h.tr.clientWatchRTT.add(t1 - c.t0)
				if sampled {
					h.tr.spans.add(spClientWatch, h.ph(), round, 0, c.t0, t1)
				}
			}
		}
		if err := h.wait(); err != nil {
			return 0, 0, err
		}
		for i, c := range h.catchup {
			h.cancels[i]()
			h.attempted++ // one op is one resume
			if c.chk.settle(catchupEvents, wantSum) != 0 {
				h.failed++
			}
		}
		events += int64(len(h.catchup)) * catchupEvents
		ops++
	}
	return events, ops, nil
}

// recoverSlice is a closed loop of full recoveries: a fresh ResyncWatcher
// pulls the whole snapshot through one of the connections, registers its
// watch, and is stopped.
func (h *harness) recoverSlice(deadline int64) (events, ops int64, err error) {
	s := h.st
	c := h.recover
	h.nRound = 0
	for h.now() < deadline {
		round := h.round.Add(1)
		client := s.clients[round%numClients]
		var snap core.Snapshotter = client
		if h.tr != nil {
			snap = tracedSnapshotter{t: h.tr, inner: client, client: true}
		}
		resets, bad := c.resets, c.bad
		t0 := h.now()
		if h.tr != nil {
			h.curRecover = h.tr.spans.begin(spRecover, h.ph(), round, 0, t0)
		}
		rw := core.NewResyncWatcher(snap, client, keyspace.Full(), c)
		err := rw.Start()
		t1 := h.now()
		if h.tr != nil {
			h.tr.spans.finish(h.curRecover, t1)
		}
		rw.Stop()
		if err != nil {
			return 0, 0, fmt.Errorf("recovery: %w", err)
		}
		h.scratch[h.nRound] = t1 - t0 // far fewer rounds per slice than scratch holds
		h.nRound++
		h.attempted++ // one op is one recovery
		if c.resets != resets+1 || c.bad != bad || rw.Resyncs() != 0 {
			h.failed++
		}
		events += int64(c.wantCount)
		ops++
	}
	return events, ops, nil
}
