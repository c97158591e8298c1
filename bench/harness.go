package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/mvcc"
)

const (
	sliceLen  = 1500 * time.Millisecond // one timed slice
	warmLen   = 1500 * time.Millisecond // untimed warm-up before a phase's slices
	tickLen   = 2 * time.Millisecond    // open-loop generator wake-up
	waitLimit = 30 * time.Second        // longest any wait may block before the run is failed
	// catchupCommits is the backlog each catchup_tcp watch replays.
	catchupCommits = 32
	catchupEvents  = catchupCommits * keysPerTxn
	// consumerSamples bounds the staleness samples one consumer takes in one
	// slice: one per commit it sees, or one per round.
	consumerSamples = 1 << 14
	// burstMax bounds the lockstep burst size.
	burstMax = 64
)

type kind uint8

const (
	kindLive kind = iota
	kindCatchup
	kindRecover
)

// Phases of a pass; spans carry the phase they were recorded in.
const (
	phSetup uint32 = iota
	phPaced
	phBurst
	phRounds
)

var phaseNames = []string{"setup", "paced", "burst", "rounds"}

// workload is one named set of inputs. Later issues refer to these names.
type workload struct {
	name string
	kind kind
	tcp  bool
	// consumers is the number of watchers (live) or of watches per round.
	consumers int
	// slots is the number of disjoint key ranges the consumers are spread
	// over; 1 means every consumer watches the full range.
	slots     int
	pacedRate int // commits per second in the open-loop phase
	burst     int // commits per lockstep burst in the closed-loop phase
}

var workloads = []workload{
	{name: "live_local", kind: kindLive, consumers: 8, slots: 8, pacedRate: 10_000, burst: 64},
	{name: "fanout_tcp", kind: kindLive, tcp: true, consumers: 64, slots: 1, pacedRate: 500, burst: 16},
	{name: "catchup_tcp", kind: kindCatchup, tcp: true, consumers: 32, slots: 1},
	{name: "recover_snapshot", kind: kindRecover, tcp: true, consumers: 1, slots: 1},
}

// harness drives one workload. It owns every buffer it needs from the start:
// inside a timed slice the harness itself allocates nothing, so the memory
// metrics are the program's alone.
type harness struct {
	w    workload
	seed int64
	rng  *rand.Rand
	base time.Time // clock origin; all harness times are ns since base
	keys []keyspace.Key
	val  []byte // the value every Put copies from; its head is the version

	st    *stack
	tr    *tracer // nil on the untraced pass
	spare *tracer // the tracer's buffers, held on either pass

	// Delivery accounting shared with the consumers. Before it issues work
	// the producer adds the deliveries that work must cause to pending; each
	// consumer callback takes one off and the one that reaches zero signals
	// done. The producer blocks on done: nothing sleep-polls.
	pending atomic.Int64
	done    chan struct{} // 1 slot
	abort   chan struct{} // closed on a contract violation or the watchdog
	failMu  sync.Mutex
	failMsg string

	phase      atomic.Uint32
	timing     atomic.Bool   // consumers take staleness samples
	round      atomic.Uint64 // current round (catchup_tcp, recover_snapshot)
	curRecover uint32        // open bench.recover span

	// commitStart holds, per version mod stampSlots, the clock read taken
	// just before that version's Commit.
	commitStart [stampSlots]atomic.Int64

	live    []*liveConsumer
	catchup []*catchupConsumer
	recover *recoverConsumer

	// Per slot, what the consumers of that slot must have received in the
	// current slice.
	expCount []int64
	expSum   []uint64
	offs     [burstMax]int
	curOff   int
	txFn     func(*mvcc.Tx) error
	cancels  []core.Cancel // per-round watch cancels (catchup_tcp)

	genLag    []int64 // per commit of the current paced slice: issue time − due time
	genLagP99 int64
	scratch   []int64 // merge area for the consumers' samples
	nRound    int     // per-round samples recover_snapshot left at the head of scratch
	spanBuf   []span
	ms        runtime.MemStats
	ru        syscall.Rusage

	attempted, failed int64
}

func newHarness(w workload, seed int64, traced bool) *harness {
	h := &harness{
		w:        w,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed ^ 0x5eed)),
		base:     time.Now(),
		keys:     make([]keyspace.Key, numKeys),
		val:      make([]byte, valueSize),
		done:     make(chan struct{}, 1),
		abort:    make(chan struct{}),
		expCount: make([]int64, w.slots),
		expSum:   make([]uint64, w.slots),
		cancels:  make([]core.Cancel, w.consumers),
		genLag:   make([]int64, w.pacedRate*int(sliceLen/time.Second+1)),
		scratch:  make([]int64, w.consumers*consumerSamples),
	}
	for i := range h.keys {
		h.keys[i] = keyspace.NumericKey(i)
	}
	for i := range h.val {
		h.val[i] = byte('a' + i%26)
	}
	h.txFn = func(tx *mvcc.Tx) error {
		for i := range keysPerTxn {
			tx.Put(h.keys[h.curOff+i], h.val)
		}
		return nil
	}
	// The tracer's buffers are held on both passes, used or not: live heap
	// sets how often the collector runs, and the two passes must differ by the
	// wrappers alone for their difference to be the tracing overhead.
	h.spare = newTracer(h)
	h.spare.pair = w.kind == kindLive && w.tcp
	h.spanBuf = make([]span, spanSlots)
	if traced {
		h.tr = h.spare
	}
	switch w.kind {
	case kindLive:
		for i := range w.consumers {
			h.live = append(h.live, &liveConsumer{h: h, chk: newChecker(), samples: make([]int64, consumerSamples)})
			clear(h.live[i].samples)
		}
	case kindCatchup:
		for range w.consumers {
			h.catchup = append(h.catchup, &catchupConsumer{h: h, chk: newChecker()})
		}
	case kindRecover:
		h.recover = &recoverConsumer{h: h}
	}
	clear(h.genLag) // touch every page of every buffer before anything is timed
	clear(h.scratch)
	return h
}

func (h *harness) now() int64 { return int64(time.Since(h.base)) }

// fail records the first contract violation and releases every wait.
func (h *harness) fail(format string, args ...any) {
	h.failMu.Lock()
	defer h.failMu.Unlock()
	if h.failMsg == "" {
		h.failMsg = fmt.Sprintf(format, args...)
		close(h.abort)
	}
}

func (h *harness) failure() error {
	h.failMu.Lock()
	defer h.failMu.Unlock()
	if h.failMsg == "" {
		return nil
	}
	return errors.New(h.failMsg)
}

// delivered is called by a consumer for every delivery it was owed.
func (h *harness) delivered() {
	if h.pending.Add(-1) == 0 {
		select {
		case h.done <- struct{}{}:
		default:
		}
	}
}

// wait blocks until every delivery added to pending has arrived. The loop
// re-checks pending because done may hold a signal from an earlier zero.
func (h *harness) wait() error {
	for h.pending.Load() != 0 {
		select {
		case <-h.done:
		case <-h.abort:
			return h.failure()
		}
	}
	return nil
}

// rangeOf is the key range consumer i watches.
func (h *harness) rangeOf(i int) keyspace.Range {
	if h.w.slots == 1 {
		return keyspace.Full()
	}
	per := numKeys / h.w.slots
	return keyspace.NumericRange(i%h.w.slots*per, (i%h.w.slots+1)*per)
}

// mix folds one (key, version) pair into a consumer's checksum. Summing is
// order-free, which is all the contract promises across keys.
func mix(key, version uint64) uint64 {
	x := key*0x9e3779b97f4a7c15 ^ version*0xc2b2ae3d27d4eb4f
	return x ^ x>>29
}

// expect books the deliveries that a commit of keysPerTxn consecutive keys
// from off at version v must cause, per slot, and returns their number over
// all consumers.
func expect(off int, v uint64, slots, consumers int, count []int64, sum []uint64) int64 {
	per := numKeys / slots
	for k := off; k < off+keysPerTxn; k++ {
		count[k/per]++
		sum[k/per] += mix(uint64(k), v)
	}
	return int64(keysPerTxn * consumers / slots)
}

// commit writes keysPerTxn consecutive keys from off in one transaction. The
// value's head is the version the commit will get: one producer, so it is
// known beforehand.
func (h *harness) commit(off int) error {
	s := h.st
	v := s.head + 1
	binary.LittleEndian.PutUint64(h.val, v)
	h.curOff = off
	var id uint32
	sampled := h.tr != nil && v%sampleEvery == 0
	if sampled {
		id = h.tr.spans.begin(spCommit, uint8(h.phase.Load()), v, 0, h.now())
		h.tr.curCommit = id
	}
	got, err := s.store.Commit(h.txFn)
	if sampled {
		h.tr.spans.finish(id, h.now())
		h.tr.curCommit = 0
	}
	if err != nil {
		return err
	}
	if uint64(got) != v {
		return fmt.Errorf("commit got version %d, want %d", got, v)
	}
	s.head = v
	return nil
}

// checker verifies one consumer's stream against the watch contract: every
// key's versions strictly ascend, every payload is the one written, and the
// count and checksum equal what the producer booked.
type checker struct {
	last  []uint64 // per key: epoch<<40 | last version seen
	epoch uint64   // bumped when a consumer starts a fresh watch
	count int64
	sum   uint64
	bad   int64 // out-of-order, duplicated or corrupt deliveries
}

func newChecker() checker {
	c := checker{last: make([]uint64, numKeys)}
	clear(c.last)
	return c
}

// keyIndex inverts keyspace.NumericKey; -1 for anything else.
func keyIndex(k keyspace.Key) int {
	if len(k) != 12 {
		return -1
	}
	n := 0
	for i := 0; i < len(k); i++ {
		d := k[i] - '0'
		if d > 9 {
			return -1
		}
		n = n*10 + int(d)
	}
	if n >= numKeys {
		return -1
	}
	return n
}

func (c *checker) observe(key keyspace.Key, version uint64, value []byte) {
	c.count++
	k := keyIndex(key)
	if k < 0 || len(value) != valueSize || binary.LittleEndian.Uint64(value) != version {
		c.bad++
		return
	}
	tag := c.epoch<<40 | version
	if prev := c.last[k]; prev>>40 == c.epoch && prev >= tag {
		c.bad++
	}
	c.last[k] = tag
	c.sum += mix(uint64(k), version)
}

// settle compares the stream with what was booked, returns the number of
// failed deliveries, and starts a fresh count.
func (c *checker) settle(wantCount int64, wantSum uint64) int64 {
	failed := c.bad
	if d := c.count - wantCount; d != 0 {
		failed += max(d, -d)
	} else if c.sum != wantSum && c.bad == 0 {
		failed++
	}
	c.count, c.sum, c.bad = 0, 0, 0
	return failed
}

// liveConsumer is one watcher of the live workloads.
type liveConsumer struct {
	h       *harness
	chk     checker
	lastVer uint64
	samples []int64 // staleness, ns
	n       int
	peer    *tracedWatch // the server sink feeding this consumer (traced fanout_tcp)
}

func (c *liveConsumer) OnEvent(ev core.ChangeEvent) {
	h := c.h
	v := uint64(ev.Version)
	c.chk.observe(ev.Key, v, ev.Mut.Value)
	// Staleness is taken at the first event of each commit this watcher sees.
	if v != c.lastVer {
		c.lastVer = v
		if h.timing.Load() {
			now := h.now()
			if c.n < len(c.samples) {
				c.samples[c.n] = now - h.commitStart[v%stampSlots].Load()
				c.n++
			}
			if h.tr != nil && v%sampleEvery == 0 {
				c.traceFirst(v, now)
			}
		}
	}
	h.delivered()
}

// traceFirst records the layer waits behind a sampled commit's first event:
// over TCP the transit from the paired sink, in process the dispatch wait.
func (c *liveConsumer) traceFirst(v uint64, now int64) {
	t := c.h.tr
	ph := uint8(c.h.phase.Load())
	if c.peer != nil {
		if sent := c.peer.sinkDone[v%stampSlots].Load(); sent != 0 {
			t.transit.add(now - sent)
			t.spans.add(spTransit, ph, v, c.peer.sinkSpan[v%stampSlots].Load(), sent, now)
		}
		return
	}
	appended := t.appendDone[v%stampSlots].Load()
	t.dispatchWait.add(now - appended)
	t.spans.add(spDispatchWait, ph, v, t.appendSpan[v%stampSlots].Load(), appended, now)
}

func (c *liveConsumer) OnProgress(core.ProgressEvent) {}

func (c *liveConsumer) OnResync(r core.ResyncEvent) { c.h.fail("live watcher resynced: %s", r.Reason) }

// catchupConsumer is one watch slot of catchup_tcp: every round it registers
// afresh and must receive exactly the backlog.
type catchupConsumer struct {
	h       *harness
	chk     checker
	t0      int64 // when this round's Watch was called
	samples [consumerSamples]int64
	n       int
}

func (c *catchupConsumer) OnEvent(ev core.ChangeEvent) {
	c.chk.observe(ev.Key, uint64(ev.Version), ev.Mut.Value)
	if c.chk.count == catchupEvents && c.n < len(c.samples) {
		c.samples[c.n] = c.h.now() - c.t0
		c.n++
	}
	c.h.delivered()
}

func (c *catchupConsumer) OnProgress(core.ProgressEvent) {}

func (c *catchupConsumer) OnResync(r core.ResyncEvent) {
	c.h.fail("catch-up watch resynced: %s", r.Reason)
}

// recoverConsumer is the consumer a ResyncWatcher drives on recover_snapshot.
// It checks each snapshot it is handed against the store's own.
type recoverConsumer struct {
	h         *harness
	wantCount int
	wantSum   uint64
	wantAt    core.Version
	resets    int
	bad       int64
}

// snapshotSum is the order-free checksum of a snapshot's (key, version, value).
func snapshotSum(entries []core.Entry) (sum uint64, ok bool) {
	ok = true
	for i := range entries {
		e := &entries[i]
		k := keyIndex(e.Key)
		if k < 0 || len(e.Value) != valueSize || binary.LittleEndian.Uint64(e.Value) != uint64(e.Version) {
			ok = false
			continue
		}
		sum += mix(uint64(k), uint64(e.Version))
	}
	return sum, ok
}

func (c *recoverConsumer) ResetSnapshot(_ keyspace.Range, entries []core.Entry, at core.Version) {
	c.resets++
	sum, ok := snapshotSum(entries)
	if !ok || len(entries) != c.wantCount || sum != c.wantSum || at != c.wantAt {
		c.bad++
	}
}

func (c *recoverConsumer) ApplyChange(core.ChangeEvent) { c.bad++ } // the store is static

func (c *recoverConsumer) AdvanceFrontier(core.ProgressEvent) {}

// heapLive is HeapAlloc after a full collection.
func (h *harness) heapLive() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	runtime.ReadMemStats(&h.ms)
	return h.ms.HeapAlloc
}

// sortedSamples merges the consumers' staleness samples of the slice, sorted.
func (h *harness) sortedSamples() []int64 {
	s := h.scratch[:h.nRound]
	h.nRound = 0
	for _, c := range h.live {
		s = append(s, c.samples[:c.n]...)
		c.n = 0
	}
	for _, c := range h.catchup {
		s = append(s, c.samples[:c.n]...)
		c.n = 0
	}
	slices.Sort(s)
	return s
}
