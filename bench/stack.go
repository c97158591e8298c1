package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/remote"
)

const (
	numKeys    = 100_000
	keysPerTxn = 8
	numBlocks  = numKeys / keysPerTxn // the preload is one commit per block
	valueSize  = 64
	// hubWindow is both the hub's Retention and its WatcherBuffer.
	hubWindow = 1 << 16
	// governBudget is a budget the stack never approaches: the governor is
	// attached, as in production, and must stay at Steady.
	governBudget = 1 << 30
	numClients   = 2
)

// stack is one build-up of the system under test with production wiring: an
// isolated metrics registry, an always-on flight recorder and a governor,
// and no per-event tracer.
type stack struct {
	reg       *metrics.Registry
	rec       *flightrec.Recorder
	gov       *govern.Governor
	store     *mvcc.Store
	hub       *core.Hub // what in-process consumers watch
	closeHub  func()
	srv       *remote.Server
	clients   [numClients]*remote.Client
	cancels   []core.Cancel
	head      uint64  // last committed version
	lastBlock []int32 // block written by each preload commit, in commit order
}

// buildStack builds the workload's stack from empty up to its last registered
// watcher: preload every key through one commit per block with the hub
// attached, start the server, dial the clients, register the watchers. It is
// the unit setup_s times. With a tracer the same parts are wired through the
// harness's wrappers.
func (h *harness) buildStack() (*stack, error) {
	s := &stack{reg: metrics.NewRegistry()}
	s.rec = flightrec.New(flightrec.Config{Metrics: s.reg})
	s.gov = govern.NewGovernor(govern.Config{Budget: governBudget, Metrics: s.reg, Recorder: s.rec})
	cfg := core.HubConfig{
		Retention: hubWindow, WatcherBuffer: hubWindow,
		Metrics: s.reg, Recorder: s.rec, Governor: s.gov,
	}
	var served core.Watchable
	var snap core.Snapshotter
	if h.tr == nil {
		ws := mvcc.NewWatchableStore(cfg)
		s.store, s.hub, s.closeHub = ws.Store, ws.Hub(), ws.Close
		served, snap = ws, ws
	} else {
		// What NewWatchableStore does, with the harness's wrappers between
		// the layers.
		s.store, s.hub = mvcc.NewStore(), core.NewHub(cfg)
		detach := s.store.AttachCDC(keyspace.Full(), tracedIngester{h.tr, s.hub})
		s.closeHub = func() { detach(); s.hub.Close() }
		served = tracedWatchable{h.tr, s.hub}
		snap = tracedSnapshotter{t: h.tr, inner: s.store}
	}
	h.st = s

	// The preload order is a seeded permutation of the blocks, so the store
	// is not built by sorted insertion and the last commits (the backlog
	// catchup_tcp replays) depend on the seed.
	s.lastBlock = make([]int32, 0, numBlocks)
	for _, b := range rand.New(rand.NewSource(h.seed)).Perm(numBlocks) {
		if err := h.commit(b * keysPerTxn); err != nil {
			return s, err
		}
		s.lastBlock = append(s.lastBlock, int32(b))
	}

	if h.w.tcp {
		var err error
		s.srv, err = remote.ServeWith("127.0.0.1:0", served, snap, remote.ServerConfig{
			Metrics: s.reg, Recorder: s.rec, Governor: s.gov,
		})
		if err != nil {
			return s, err
		}
		ccfg := remote.ClientConfig{Metrics: s.reg, Recorder: s.rec}
		if h.tr != nil {
			ccfg.Dialer = func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				return countingConn{c, &h.tr.clientReads}, nil
			}
		}
		for i := range s.clients {
			if s.clients[i], err = remote.DialWith(s.srv.Addr(), ccfg); err != nil {
				return s, err
			}
		}
	}

	if h.w.kind != kindLive {
		return s, nil // the other workloads register their watches per round
	}
	watchers := s.reg.Gauge("core_hub_watchers")
	for i, c := range h.live {
		var src core.Watchable = s.hub
		if h.w.tcp {
			src = s.clients[i%numClients]
		}
		cancel, err := src.Watch(h.rangeOf(i), core.Version(s.head), c)
		if err != nil {
			return s, err
		}
		s.cancels = append(s.cancels, cancel)
		if h.tr != nil && h.w.tcp {
			// Registering one at a time makes arrival order at the server
			// the client's order, which pairs each consumer with its sink.
			if err := h.waitUntil(func() bool { return h.tr.watchAt(i) != nil }); err != nil {
				return s, err
			}
			c.peer = h.tr.watchAt(i)
		}
	}
	// Client.Watch only sends the request; the build-up ends when the hub
	// holds every watcher.
	err := h.waitUntil(func() bool { return watchers.Value() == int64(len(h.live)) })
	return s, err
}

// waitUntil sleep-polls until cond holds. Set-up only: a sleep costs at least
// 1.1 ms on this host, which is noise on a build-up and would be ruinous in a
// timed loop, where nothing ever polls. (Yielding instead of sleeping would
// keep the one P busy and leave socket readiness to the 10 ms sysmon poll.)
func (h *harness) waitUntil(cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: condition not reached within %v", waitLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// close tears the stack down, consumers first so that no teardown resync
// reaches one.
func (s *stack) close() {
	for _, c := range s.cancels {
		c()
	}
	for _, c := range s.clients {
		if c != nil {
			c.Close()
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.closeHub != nil {
		s.closeHub()
	}
	s.gov.Close()
}

// counter reads one of the stack's registry counters.
func (s *stack) counter(name string) int64 { return s.reg.Counter(name).Value() }
