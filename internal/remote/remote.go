// Package remote serves the watch contract over a network: a Server
// exposes any core.Watchable + core.Snapshotter on a TCP listener, and a
// Client implements the same interfaces against it, so entire consumer
// stacks (caches, replicas, workers) run unchanged against a remote watch
// system — the "standalone watch system" of the paper's §5 made standalone
// in fact.
//
// The wire protocol is length-prefixed binary frames over one connection per
// client (see protocol.go and codec.go): each end opens with a hello, then
// requests flow client→server (watch, cancel, snapshot);
// event batches, progress, resyncs and snapshot chunks flow back,
// multiplexed by watch ID. The transport never flattens the batched feed:
// each contiguous run of events the watch system drains for one watch
// crosses the wire as one EventBatch frame, or as a repeat naming only the
// watch when it is the run the connection's previous batch carried; the
// per-connection writer coalesces flushes (one per scheduling round, or a
// small linger under backlog, never per frame), and encode/decode buffers
// are pooled, so the per-event syscall and allocation costs are gone.
//
// A write stall for one slow client cannot wedge the watch system: frames
// queue in a bounded per-connection outbox (accounted in events, not
// frames) and overflow converts each of the client's watches into a resync
// — the same lag-or-resync contract the hub itself provides (§4.4),
// applied at the transport layer. Snapshot responses stream as bounded
// chunks with their own flow control, so a large recovery read neither
// triggers that overflow nor materializes unbounded memory on either end.
//
// # Resilience
//
// The network is allowed to fail without breaking the contract's trichotomy
// (current, lagging with a known frontier, or explicitly resyncing):
//
//   - Liveness: both ends open with a hello frame announcing their
//     heartbeat interval, send heartbeats on an idle stream, and arm
//     read deadlines sized to the peer's interval — a half-open connection
//     (NAT timeout, partition, peer crash) is detected in O(heartbeat
//     interval) instead of hanging a watcher forever. Write deadlines bound
//     the server's flush so a stalled reader converts to connection teardown
//     (and, before that, outbox overflow→resync), never a wedged writer.
//
//   - Recovery: a Client built with ReconnectPolicy.Enabled redials on
//     connection loss with exponential backoff + jitter and a bounded retry
//     budget, then re-establishes every live watch from its resume point
//     (the highest delivered event/progress version, tracked per watch by a
//     core.ResumePoint). Watch IDs, metrics counters and trace stages stay
//     continuous across reconnects; the consumer sees a ResyncEvent only
//     when the server's retention window genuinely cannot cover the gap.
//     In-flight snapshot reads are re-issued on the new connection.
//
//   - Graceful drain: Server.Shutdown stops accepting, sends a terminal
//     resync per watch plus a shutdown marker, flushes, and closes — so
//     clients can tell "server going away" (terminal, do not reconnect)
//     from "network died" (reconnect and resume).
//
// Faults are injected for tests via ChaosConn (chaosconn.go): scripted
// drops, stalls, blackholes, partial writes and byte corruption, behind a
// ClientConfig.Dialer hook.
package remote

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// Transport tuning. These are compile-time constants: the protocol works at
// any value, the numbers only trade latency against batching.
const (
	// outboundLimit bounds a connection's outbox in queued change events
	// (progress frames count as one each); beyond it the client's watches
	// are resynced rather than buffered without bound. Resync and snapshot
	// frames are exempt — they are the recovery path.
	outboundLimit = 8192
	// connWriteBuffer is the bufio.Writer size in front of each server
	// socket; under sustained backlog it turns many small frames into few
	// large writes.
	connWriteBuffer = 64 << 10
	// connReadBuffer is the read-side bufio size on both ends.
	connReadBuffer = 32 << 10
	// flushLinger is how long encoded frames may sit unflushed while the
	// writer keeps draining; the queue-empty flush usually wins well before
	// this deadline.
	flushLinger = 500 * time.Microsecond
	// snapChunkEntries and snapChunkBytes bound one snapshot chunk —
	// whichever is reached first closes the chunk.
	snapChunkEntries = 1024
	snapChunkBytes   = 256 << 10
	// snapBacklogBytes bounds the snapshot-chunk bytes queued in one
	// connection's outbox; the snapshot streamer blocks (it runs on its own
	// goroutine) until the writer drains below it.
	snapBacklogBytes = 1 << 20
)

// Liveness tuning defaults (overridable per Server/Client config).
const (
	// defaultHeartbeatInterval is how often an idle stream carries a
	// heartbeat frame in each direction.
	defaultHeartbeatInterval = time.Second
	// heartbeatTimeoutMult sizes the read deadline from the peer's announced
	// heartbeat interval: a connection silent for this many intervals is
	// declared dead.
	heartbeatTimeoutMult = 4
	// defaultWriteTimeout bounds one socket write on the server; a reader
	// stalled longer than this has its connection torn down (its watches
	// were already being lagged out by the outbox bound).
	defaultWriteTimeout = 10 * time.Second
	// defaultDialTimeout bounds one dial attempt.
	defaultDialTimeout = 5 * time.Second
)

// connLossErr reports whether err is ordinary connection loss (EOF, closed
// or reset socket, deadline expiry) rather than a protocol violation. The
// distinction feeds the decode-error counters: loss is expected and handled
// by reconnect/resync; a decode failure means the stream itself is corrupt.
func connLossErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// serverMetrics holds the server-side transport instruments, resolved once at
// Serve so the per-frame paths stay atomic-only. Instruments are created on
// first use and shared by name, so resolving the same registry twice (two
// servers, or a server restart) accumulates into the same counters — there is
// no duplicate registration and no count reset.
type serverMetrics struct {
	conns           *metrics.Counter
	overflowResyncs *metrics.Counter
	watchRejects    *metrics.Counter
	frames          *metrics.Counter // wire messages encoded (batch = 1 frame)
	bytes           *metrics.Counter // bytes written to client sockets
	events          *metrics.Counter // change events sent inside event frames
	snapChunks      *metrics.Counter // snapshot response chunks streamed
	heartbeats      *metrics.Counter // heartbeat frames sent on idle conns
	hbMisses        *metrics.Counter // read deadlines expired: peer fell silent
	decodeErrs      *metrics.Counter // corrupt/unknown frames that killed a conn
	connDrops       *metrics.Counter // events+frames queued but unsent when a conn died
	drainedWatches  *metrics.Counter // watches terminally resynced by Shutdown
	overloads       *metrics.Counter // watch/snapshot requests refused under memory pressure
}

func newServerMetrics(reg *metrics.Registry) serverMetrics {
	reg = reg.Or()
	return serverMetrics{
		conns:           reg.Counter("remote_server_conns_total"),
		overflowResyncs: reg.Counter("remote_server_overflow_resyncs_total"),
		watchRejects:    reg.Counter("remote_server_watch_rejects_total"),
		frames:          reg.Counter("remote_server_frames_total"),
		bytes:           reg.Counter("remote_server_bytes_total"),
		events:          reg.Counter("remote_server_events_total"),
		snapChunks:      reg.Counter("remote_server_snap_chunks_total"),
		heartbeats:      reg.Counter("remote_server_heartbeats_total"),
		hbMisses:        reg.Counter("remote_server_heartbeat_misses_total"),
		decodeErrs:      reg.Counter("remote_server_decode_errors_total"),
		connDrops:       reg.Counter("remote_server_conn_drops_total"),
		drainedWatches:  reg.Counter("remote_server_drained_watches_total"),
		overloads:       reg.Counter("remote_server_overloaded_total"),
	}
}

// clientMetrics holds the client-side transport instruments (same sharing
// semantics as serverMetrics: per-Dial resolution from one registry lands on
// the same counters across reconnects).
type clientMetrics struct {
	connLost       *metrics.Counter
	watches        *metrics.Counter
	snapshots      *metrics.Counter
	resyncs        *metrics.Counter
	frames         *metrics.Counter // wire messages decoded
	bytes          *metrics.Counter // bytes read from the server socket
	events         *metrics.Counter // change events received inside event frames
	heartbeats     *metrics.Counter // heartbeat frames sent on idle conns
	hbMisses       *metrics.Counter // read deadlines expired: server fell silent
	decodeErrs     *metrics.Counter // corrupt/unknown frames that killed a conn
	reconnects     *metrics.Counter // successful reconnects
	reconnectFails *metrics.Counter // failed dial attempts during reconnect
	resumedWatches *metrics.Counter // watches re-established from a resume point
	overloaded     *metrics.Counter // requests the server refused under memory pressure
}

func newClientMetrics(reg *metrics.Registry) clientMetrics {
	reg = reg.Or()
	return clientMetrics{
		connLost:       reg.Counter("remote_client_conn_lost_total"),
		watches:        reg.Counter("remote_client_watches_total"),
		snapshots:      reg.Counter("remote_client_snapshots_total"),
		resyncs:        reg.Counter("remote_client_resyncs_total"),
		frames:         reg.Counter("remote_client_frames_total"),
		bytes:          reg.Counter("remote_client_bytes_total"),
		events:         reg.Counter("remote_client_events_total"),
		heartbeats:     reg.Counter("remote_client_heartbeats_total"),
		hbMisses:       reg.Counter("remote_client_heartbeat_misses_total"),
		decodeErrs:     reg.Counter("remote_client_decode_errors_total"),
		reconnects:     reg.Counter("remote_client_reconnects_total"),
		reconnectFails: reg.Counter("remote_client_reconnect_failures_total"),
		resumedWatches: reg.Counter("remote_client_resumed_watches_total"),
		overloaded:     reg.Counter("remote_client_overloaded_total"),
	}
}

// ServerConfig tunes a Server beyond its defaults.
type ServerConfig struct {
	// Metrics is the registry the server's instruments resolve from; nil uses
	// metrics.Default().
	Metrics *metrics.Registry
	// Tracer, when non-nil, stamps trace.StageRemoteEnqueue as traced events
	// enter a connection's outbound queue. Wire the same tracer into the
	// source store / hub for end-to-end remote traces.
	Tracer *trace.Tracer
	// HeartbeatInterval is how often an idle connection carries a
	// server→client heartbeat, and what the server announces in its hello
	// (the client sizes its read deadline from it). 0 uses the 1s default;
	// negative disables server heartbeats (clients still heartbeat toward
	// the server).
	HeartbeatInterval time.Duration
	// WriteTimeout bounds one socket write; a client stalled past it has its
	// connection torn down (overflow→resync already lagged its watches out).
	// 0 uses the 10s default; negative disables write deadlines.
	WriteTimeout time.Duration
	// Recorder, when non-nil, flight-records connection lifecycle events:
	// accept, heartbeat miss, overflow, drain, disconnect. Nil disables
	// recording; the per-frame paths never record either way.
	Recorder *flightrec.Recorder
	// Governor, when non-nil, puts the server under the process memory
	// governor: outbound connection queues are charged to its "remote"
	// account, and snapshot requests are admission-controlled — refused with
	// a retry-after hint (tagOverloaded) while the governor is at Reject
	// pressure. Watch admission is the watch source's own concern (a governed
	// hub refuses there); this server maps that refusal onto the wire.
	Governor *govern.Governor
}

// Server exposes a watch system and its recovery snapshots on a listener.
type Server struct {
	watch      core.Watchable
	snap       core.Snapshotter
	ln         net.Listener
	tracer     *trace.Tracer
	rec        *flightrec.Recorder
	hbInterval time.Duration
	writeTO    time.Duration
	gov        *govern.Governor
	acct       *govern.Account // the governor's "remote" account (nil when ungoverned)
	connSeq    atomic.Int64    // connection ids, for flight-record correlation

	mu     sync.Mutex
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
	met    serverMetrics
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") with default
// configuration. The returned server is already accepting; Addr reports the
// bound address.
func Serve(addr string, watch core.Watchable, snap core.Snapshotter) (*Server, error) {
	return ServeWith(addr, watch, snap, ServerConfig{})
}

// ServeWith starts a server with explicit configuration.
func ServeWith(addr string, watch core.Watchable, snap core.Snapshotter, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen: %w", err)
	}
	hb := cfg.HeartbeatInterval
	if hb == 0 {
		hb = defaultHeartbeatInterval
	}
	wto := cfg.WriteTimeout
	if wto == 0 {
		wto = defaultWriteTimeout
	}
	s := &Server{
		watch:      watch,
		snap:       snap,
		ln:         ln,
		tracer:     cfg.Tracer,
		rec:        cfg.Recorder,
		hbInterval: hb,
		writeTO:    wto,
		conns:      make(map[*serverConn]struct{}),
		met:        newServerMetrics(cfg.Metrics),
	}
	if cfg.Governor != nil {
		s.gov = cfg.Governor
		s.acct = cfg.Governor.Account("remote")
		// The transport's rung on the degradation ladder, after the hub has
		// evicted retention and shed its own laggards: convert the fattest
		// connection's queued backlog into per-watch resyncs.
		s.gov.RegisterReliever(30, "remote-overflow", s.relieveOverflow)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sc := &serverConn{
			id:      s.connSeq.Add(1),
			conn:    conn,
			met:     s.met,
			tracer:  s.tracer,
			rec:     s.rec,
			writeTO: s.writeTO,
			acct:    s.acct,
			done:    make(chan struct{}),
			watches: make(map[uint64]serverWatch),
		}
		// Provisional until the client's hello announces its own interval, so
		// a peer that connects and never speaks is reaped like any silent one.
		sc.peerHB.Store(int64(s.hbInterval))
		sc.cond = sync.NewCond(&sc.mu)
		sc.spaceCond = sync.NewCond(&sc.mu)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(sc)
	}
}

// outFrame is one queued outbound message; tag selects which payload field
// is live. Event batches and snapshot chunks are pooled and recycled after
// encode.
type outFrame struct {
	tag       uint8
	id        uint64
	evs       *[]core.ChangeEvent // tagEventBatch
	prog      core.ProgressEvent  // tagProgress
	resync    core.ResyncEvent    // tagResync
	chunk     *snapChunk          // tagSnapChunk
	chunkSize int                 // approx payload bytes, for snapshot flow control
	aux       any                 // tagShutdown (*shutdownMsg), tagOverloaded (*overloadedMsg)
	bytes     int64               // governor footprint charged to the "remote" account (0 when ungoverned)
}

// recycle returns the frame's pooled payload, if it has one, to its pool.
func (f *outFrame) recycle() {
	switch {
	case f.evs != nil:
		putEvs(f.evs)
	case f.chunk != nil:
		putChunk(f.chunk)
	}
}

// frameDropWeight is the loss accounting for one queued-but-unsent frame:
// event batches weigh their event count, per-watch control frames weigh one,
// liveness frames weigh nothing. Summed into remote_server_conn_drops_total
// when a connection dies with a non-empty outbox, so transport loss the
// resync contract will heal is still visible to operators.
func frameDropWeight(f *outFrame) int64 {
	switch f.tag {
	case tagEventBatch:
		return int64(len(*f.evs))
	case tagProgress, tagResync, tagSnapChunk, tagOverloaded:
		return 1
	}
	return 0
}

// serverConn is the per-connection state: a bounded outbound queue drained
// by one writer goroutine, and the active watches.
type serverConn struct {
	id      int64 // server-assigned, correlates this conn's flight records
	conn    net.Conn
	met     serverMetrics
	tracer  *trace.Tracer
	rec     *flightrec.Recorder
	writeTO time.Duration
	acct    *govern.Account // governor's "remote" account; nil when ungoverned

	peerHB   atomic.Int64 // client's announced heartbeat interval (nanoseconds)
	lastSend atomic.Int64 // UnixNano of the last flush, for idle detection
	done     chan struct{}
	dieOnce  sync.Once

	mu         sync.Mutex
	cond       *sync.Cond // wakes the writer when the queue fills
	spaceCond  *sync.Cond // wakes snapshot streamers when chunk backlog drains
	queue      []outFrame
	queuedEvs  int // change events (and progress frames) queued, vs outboundLimit
	chunkBytes int // snapshot chunk payload bytes queued, vs snapBacklogBytes
	dead       bool
	draining   bool // Shutdown sent terminal resyncs; flush and close
	watches    map[uint64]serverWatch
}

type serverWatch struct {
	cancel core.Cancel
	rng    keyspace.Range
}

func (s *Server) serveConn(sc *serverConn) {
	defer s.wg.Done()
	s.met.conns.Inc()
	peer := sc.conn.RemoteAddr().String()
	s.rec.Record(flightrec.KindRemoteConnect, flightrec.Event{Comp: "remote.server", ID: sc.id, Detail: peer})

	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		sc.writeLoop(&helloMsg{Version: protoVersion, HeartbeatMillis: s.hbInterval.Milliseconds()})
	}()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		sc.heartbeatLoop(s.hbInterval)
	}()

	dec := newBinDecoder(bufio.NewReaderSize(sc.conn, connReadBuffer))
	// Read deadlines are re-armed coarsely — only once a quarter of the
	// timeout has elapsed — so a busy connection pays one deadline syscall
	// per TO/4 rather than per frame. The effective timeout stretches to at
	// most 1.25×, well inside the 4× heartbeat multiplier's slack.
	var armedAt time.Time
	var armedTO time.Duration
	var readErr error
	for first := true; ; first = false {
		to := readTimeoutFor(sc.peerHB.Load())
		if now := time.Now(); to != armedTO || now.Sub(armedAt) > to/4 {
			sc.conn.SetReadDeadline(now.Add(to))
			armedAt, armedTO = now, to
		}
		tag, err := dec.readTag()
		if err != nil {
			readErr = err
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// The peer fell silent past its heartbeat budget: the
				// half-open-connection case, distinct from ordinary loss.
				s.met.hbMisses.Inc()
				s.rec.Record(flightrec.KindHeartbeatMiss, flightrec.Event{
					Comp: "remote.server", ID: sc.id, Detail: "peer silent past heartbeat deadline",
				})
			} else if !connLossErr(err) {
				s.met.decodeErrs.Inc()
				readErr = &ProtocolError{Op: "tag", Err: err}
			}
			break // client gone (or sent garbage): tear the connection down
		}
		if first {
			// The stream must open with the client's hello.
			var h helloMsg
			if err := expectHello(dec, tag, &h); err != nil {
				s.met.decodeErrs.Inc()
				readErr = err
				break
			}
			sc.peerHB.Store(int64(time.Duration(h.HeartbeatMillis) * time.Millisecond))
			continue
		}
		if !s.handleRequest(sc, dec, tag) {
			break
		}
	}
	// Reader done: cancel watches, stop the writer, drop the connection.
	sc.mu.Lock()
	watches := sc.watches
	sc.watches = map[uint64]serverWatch{}
	sc.dead = true
	sc.cond.Broadcast()
	sc.spaceCond.Broadcast()
	sc.mu.Unlock()
	for _, w := range watches {
		w.cancel()
	}
	sc.die()
	writerWG.Wait()
	<-hbDone
	// Account what the outbox never managed to send: without this a
	// connection dying with queued frames would vanish with no drop counter
	// anywhere, hiding transport loss the resync contract papers over.
	sc.mu.Lock()
	var drops, freed int64
	for i := range sc.queue {
		f := &sc.queue[i]
		drops += frameDropWeight(f)
		freed += f.bytes
		f.recycle()
		sc.queue[i] = outFrame{}
	}
	sc.queue = nil
	sc.mu.Unlock()
	sc.acct.Release(freed)
	if drops > 0 {
		s.met.connDrops.Add(drops)
	}
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
	cause := ""
	if readErr != nil {
		cause = readErr.Error()
	}
	s.rec.Record(flightrec.KindRemoteDisconnect, flightrec.Event{
		Comp: "remote.server", ID: sc.id, N: drops, Detail: cause,
	})
}

// readTimeoutFor sizes a read deadline from the peer's announced heartbeat
// interval (nanoseconds); 0 or negative falls back to the default interval.
func readTimeoutFor(peerHB int64) time.Duration {
	iv := time.Duration(peerHB)
	if iv <= 0 {
		iv = defaultHeartbeatInterval
	}
	return iv * heartbeatTimeoutMult
}

// heartbeatLoop keeps an idle connection visibly alive: whenever no frame has
// been flushed for a full interval, a heartbeat frame is queued.
func (sc *serverConn) heartbeatLoop(interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sc.done:
			return
		case <-t.C:
		}
		if time.Since(time.Unix(0, sc.lastSend.Load())) < interval {
			continue
		}
		sc.mu.Lock()
		if !sc.dead && !sc.draining {
			sc.queue = append(sc.queue, outFrame{tag: tagHeartbeat})
			sc.met.heartbeats.Inc()
			sc.cond.Signal()
		}
		sc.mu.Unlock()
	}
}

// handleRequest decodes and dispatches one client request; false tears the
// connection down.
func (s *Server) handleRequest(sc *serverConn, dec *binDecoder, tag uint8) bool {
	bad := func(err error) bool {
		if !connLossErr(err) {
			s.met.decodeErrs.Inc()
		}
		return false
	}
	switch tag {
	case tagHeartbeat:
		// Liveness only; the read deadline reset on the next loop iteration
		// is the entire effect.
	case tagWatch:
		var req watchReq
		if err := dec.decodeWatch(&req); err != nil {
			return bad(err)
		}
		s.handleWatch(sc, req)
	case tagCancel:
		var req cancelReq
		if err := dec.decodeCancel(&req); err != nil {
			return bad(err)
		}
		sc.mu.Lock()
		w, ok := sc.watches[req.ID]
		delete(sc.watches, req.ID)
		sc.mu.Unlock()
		if ok {
			w.cancel()
		}
	case tagSnapshot:
		var req snapshotReq
		if err := dec.decodeSnapshot(&req); err != nil {
			return bad(err)
		}
		// Stream on a dedicated goroutine so the reader keeps serving
		// cancels (and further requests) while a large snapshot drains.
		s.wg.Add(1)
		go s.streamSnapshot(sc, req)
	default:
		s.met.decodeErrs.Inc()
		return false // protocol violation
	}
	return true
}

// connWatchSink feeds one watch's stream into the connection outbox. It
// implements core.EventBatchCallback, so the hub's dispatch loop hands whole
// ring-drain batches straight through to the wire.
type connWatchSink struct {
	sc *serverConn
	id uint64
}

func (cs connWatchSink) OnEvent(ev core.ChangeEvent) {
	evs := [1]core.ChangeEvent{ev}
	cs.sc.sendEvents(cs.id, evs[:])
}

func (cs connWatchSink) OnEventBatch(evs []core.ChangeEvent) { cs.sc.sendEvents(cs.id, evs) }

func (cs connWatchSink) OnProgress(p core.ProgressEvent) { cs.sc.sendProgress(cs.id, p) }

func (cs connWatchSink) OnResync(r core.ResyncEvent) { cs.sc.sendResync(cs.id, r) }

func (s *Server) handleWatch(sc *serverConn, req watchReq) {
	r := keyspace.Range{Low: req.Low, High: req.High}
	sc.mu.Lock()
	if sc.draining || sc.dead {
		// A watch racing the drain gets no stream; the client's teardown
		// path resyncs every unestablished watch when the connection ends.
		sc.mu.Unlock()
		return
	}
	sc.mu.Unlock()
	cancel, err := s.watch.Watch(r, req.From, connWatchSink{sc: sc, id: req.ID})
	if err != nil {
		// A governed watch source refuses admission under memory pressure
		// with a retry-after hint; it crosses the wire as an overloaded frame
		// so the client's reconnect/backoff machinery can wait the pressure
		// out instead of treating the refusal as lost history.
		var ov *govern.Overloaded
		if errors.As(err, &ov) {
			s.met.overloads.Inc()
			sc.sendOverloaded(req.ID, ov)
			return
		}
		// Report the failure as an immediate resync carrying the reason;
		// the consumer's recovery path handles it uniformly.
		s.met.watchRejects.Inc()
		sc.sendResync(req.ID, core.ResyncEvent{Range: r, Reason: "watch rejected: " + err.Error()})
		return
	}
	sc.mu.Lock()
	if sc.dead || sc.draining {
		sc.mu.Unlock()
		cancel()
		return
	}
	sc.watches[req.ID] = serverWatch{cancel: cancel, rng: r}
	sc.mu.Unlock()
}

// evsFootprint estimates the governor footprint of one outbound event batch:
// payload bytes plus a flat per-event struct overhead.
func evsFootprint(evs []core.ChangeEvent) int64 {
	var n int64
	for i := range evs {
		n += int64(len(evs[i].Key)+len(evs[i].Mut.Value)) + 32
	}
	return n
}

// sendEvents copies one batch into a pooled slice and enqueues it as a
// single event-batch frame. Overflow (measured in queued events, so a giant
// batch cannot sneak past a frame-count bound) lags the whole connection out.
func (sc *serverConn) sendEvents(id uint64, evs []core.ChangeEvent) {
	if len(evs) == 0 {
		return
	}
	sc.mu.Lock()
	if sc.dead || sc.draining {
		sc.mu.Unlock()
		return
	}
	if sc.queuedEvs+len(evs) > outboundLimit {
		sc.overflowLocked()
		sc.mu.Unlock()
		return
	}
	p := getEvs(len(evs))
	*p = append(*p, evs...)
	var fp int64
	if sc.acct != nil {
		fp = evsFootprint(evs)
		sc.acct.Charge(fp)
	}
	sc.queue = append(sc.queue, outFrame{tag: tagEventBatch, id: id, evs: p, bytes: fp})
	sc.queuedEvs += len(evs)
	if sc.tracer.Enabled() {
		for i := range evs {
			if evs[i].Trace != 0 {
				sc.tracer.Record(evs[i].Trace, trace.StageRemoteEnqueue)
			}
		}
	}
	sc.cond.Signal()
	sc.mu.Unlock()
}

func (sc *serverConn) sendProgress(id uint64, p core.ProgressEvent) {
	sc.mu.Lock()
	if sc.dead || sc.draining {
		sc.mu.Unlock()
		return
	}
	if sc.queuedEvs+1 > outboundLimit {
		sc.overflowLocked()
		sc.mu.Unlock()
		return
	}
	sc.queue = append(sc.queue, outFrame{tag: tagProgress, id: id, prog: p})
	sc.queuedEvs++
	sc.cond.Signal()
	sc.mu.Unlock()
}

// sendResync enqueues unconditionally: resyncs are the contract's loss
// signal and are never dropped by the bound they enforce. (During a drain
// the watch already received its terminal resync, so later ones are noise
// and are skipped.)
func (sc *serverConn) sendResync(id uint64, r core.ResyncEvent) {
	sc.mu.Lock()
	if !sc.dead && !sc.draining {
		sc.queue = append(sc.queue, outFrame{tag: tagResync, id: id, resync: r})
		sc.cond.Signal()
	}
	sc.mu.Unlock()
}

// overflowLocked converts the connection's backlog into per-watch resyncs:
// queued event and progress frames are dropped (their watches are being
// resynced anyway), while queued resyncs and snapshot chunks survive — the
// recovery path must not be starved by the overflow it heals. Caller holds
// sc.mu.
func (sc *serverConn) overflowLocked() {
	sc.met.overflowResyncs.Add(int64(len(sc.watches)))
	sc.rec.Record(flightrec.KindRemoteOverflow, flightrec.Event{
		Comp: "remote.server", ID: sc.id, N: int64(len(sc.watches)), Detail: "outbound buffer overflow",
	})
	kept := make([]outFrame, 0, len(sc.watches)+4)
	for id, w := range sc.watches {
		kept = append(kept, outFrame{tag: tagResync, id: id, resync: core.ResyncEvent{
			Range:  w.rng,
			Reason: "remote: connection outbound buffer overflow",
		}})
	}
	var freed int64
	for i := range sc.queue {
		f := &sc.queue[i]
		switch f.tag {
		// Recovery frames survive — and so do protocol-state frames: dropping
		// a shutdown marker would turn a graceful drain into an apparent
		// network death, and dropping an overloaded frame would leave a
		// refused client waiting forever.
		case tagResync, tagSnapChunk, tagShutdown, tagOverloaded:
			kept = append(kept, *f)
		case tagEventBatch:
			putEvs(f.evs)
			freed += f.bytes
		}
		sc.queue[i] = outFrame{}
	}
	sc.queue = kept
	sc.queuedEvs = 0
	sc.cond.Signal()
	sc.acct.Release(freed)
}

// streamSnapshot pulls the range snapshot from a cursor one chunk at a time
// and streams the chunks, blocking on the connection's chunk-backlog bound
// rather than running ahead of the writer: the server holds O(backlog) of a
// snapshot, never the snapshot. Chunks come from chunkPool and go back to it
// once the writer has encoded them. Runs on its own goroutine, tracked by the
// server waitgroup.
func (s *Server) streamSnapshot(sc *serverConn, req snapshotReq) {
	defer s.wg.Done()
	// Admission-control recovery reads: serving a large snapshot while the
	// governor is already at Reject pressure would deepen the overload that
	// triggered the recovery. Keyed by peer so a quarantine aimed at this
	// client's address never bleeds onto its neighbours.
	if err := s.gov.Admit("snapshot:" + sc.conn.RemoteAddr().String()); err != nil {
		var ov *govern.Overloaded
		if errors.As(err, &ov) {
			s.met.overloads.Inc()
			sc.sendOverloaded(req.ID, ov)
			return
		}
	}
	cur := core.OpenSnapshot(s.snap, keyspace.Range{Low: req.Low, High: req.High})
	ch := getChunk()
	for first, done := true, false; ; first = false {
		if k := len(ch.Entries); !done && k < cap(ch.Entries) {
			got, d, err := cur.Next(ch.Entries[k:k:cap(ch.Entries)])
			if err != nil {
				// What was sent so far is a prefix, not a snapshot: the error
				// chunk makes the client drop it.
				putChunk(ch)
				ch = getChunk()
				ch.ID, ch.Err, ch.Last = req.ID, err.Error(), true
				if !sc.sendChunk(ch, len(ch.Err)+32) {
					putChunk(ch)
				}
				return
			}
			ch.Entries, done = ch.Entries[:k+len(got)], d
		}
		// The chunk closes at snapChunkBytes if that comes before the buffer
		// is full; what the cursor delivered beyond it opens the next chunk.
		n, size := 0, 0
		for n < len(ch.Entries) && size < snapChunkBytes {
			e := &ch.Entries[n]
			size += len(e.Key) + len(e.Value) + 16
			n++
		}
		var next *snapChunk
		if !done || n < len(ch.Entries) {
			next = getChunk()
			next.Entries = append(next.Entries, ch.Entries[n:]...)
			clear(ch.Entries[n:])
			ch.Entries = ch.Entries[:n]
		}
		ch.ID, ch.At, ch.Last = req.ID, cur.At(), next == nil
		if first {
			ch.Bound = cur.Bound()
		}
		if !sc.sendChunk(ch, size+32) {
			putChunk(ch)
			if next != nil {
				putChunk(next)
			}
			return
		}
		if next == nil {
			return
		}
		ch = next
	}
}

// sendChunk enqueues one snapshot chunk, waiting while the connection's
// queued chunk bytes exceed snapBacklogBytes. Returns false once the
// connection is dead.
func (sc *serverConn) sendChunk(ch *snapChunk, size int) bool {
	sc.mu.Lock()
	for !sc.dead && !sc.draining && sc.chunkBytes > snapBacklogBytes {
		sc.spaceCond.Wait()
	}
	if sc.dead || sc.draining {
		sc.mu.Unlock()
		return false
	}
	var fp int64
	if sc.acct != nil {
		fp = int64(size)
		sc.acct.Charge(fp)
	}
	sc.queue = append(sc.queue, outFrame{tag: tagSnapChunk, id: ch.ID, chunk: ch, chunkSize: size, bytes: fp})
	sc.chunkBytes += size
	sc.cond.Signal()
	sc.mu.Unlock()
	return true
}

// sendOverloaded refuses one watch or snapshot request with the governor's
// retry-after hint. Like sendResync it bypasses the outbox bound: it is the
// back-pressure signal itself and must not be starved by the backlog it is
// there to shed.
func (sc *serverConn) sendOverloaded(id uint64, ov *govern.Overloaded) {
	m := &overloadedMsg{ID: id, RetryAfterMillis: ov.RetryAfter.Milliseconds(), Reason: ov.Reason}
	sc.mu.Lock()
	if !sc.dead && !sc.draining {
		sc.queue = append(sc.queue, outFrame{tag: tagOverloaded, id: id, aux: m})
		sc.cond.Signal()
	}
	sc.mu.Unlock()
}

// die tears the connection down and wakes every waiter. Idempotent.
func (sc *serverConn) die() {
	sc.dieOnce.Do(func() { close(sc.done) })
	sc.mu.Lock()
	sc.dead = true
	sc.cond.Broadcast()
	sc.spaceCond.Broadcast()
	sc.mu.Unlock()
	sc.conn.Close()
}

// beginDrain converts the connection to graceful-shutdown mode: every live
// watch gets a terminal resync, a shutdown marker follows, new frames are
// refused, and the writer closes the connection once the queue has flushed.
// Watch cancels run outside the lock.
func (sc *serverConn) beginDrain(reason string) {
	sc.mu.Lock()
	if sc.dead || sc.draining {
		sc.mu.Unlock()
		return
	}
	var cancels []core.Cancel
	n := 0
	for id, w := range sc.watches {
		sc.queue = append(sc.queue, outFrame{tag: tagResync, id: id, resync: core.ResyncEvent{
			Range:  w.rng,
			Reason: reason,
		}})
		cancels = append(cancels, w.cancel)
		n++
	}
	sc.watches = map[uint64]serverWatch{}
	sc.queue = append(sc.queue, outFrame{tag: tagShutdown, aux: &shutdownMsg{Reason: reason}})
	sc.draining = true
	sc.cond.Signal()
	sc.spaceCond.Broadcast() // unblock snapshot streamers; their conn is going away
	sc.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	if n > 0 {
		sc.met.drainedWatches.Add(int64(n))
	}
	sc.rec.Record(flightrec.KindRemoteDrain, flightrec.Event{
		Comp: "remote.server", ID: sc.id, N: int64(n), Detail: reason,
	})
}

// writeLoop opens the stream with the server's hello, then drains the outbox
// through one buffered binary encoder. An event batch identical to the last
// one encoded in full goes out as a repeat naming only its watch. Flush
// policy: when the queue runs empty, yield once so the dispatchers woken by
// the same commit can enqueue their runs, encode what arrived, and flush once
// the queue is still empty — one write per scheduling round, not per watch;
// under sustained backlog, flush when encoded frames have lingered past
// flushLinger; bufio additionally writes through whenever the buffer fills.
// Every socket write sits under the configured write deadline, so a stalled
// reader tears the connection down instead of wedging this loop. When the
// connection is draining, the loop flushes the final frames and closes.
func (sc *serverConn) writeLoop(hello *helloMsg) {
	bw := bufio.NewWriterSize(&countingWriter{w: sc.conn, c: sc.met.bytes}, connWriteBuffer)
	enc := newBinEncoder(bw)
	var local []outFrame
	// prev is the run of the last batch encoded in full, owned by the writer
	// until a different run replaces it.
	var prev *[]core.ChangeEvent
	defer func() {
		if prev != nil {
			putEvs(prev)
		}
	}()
	var lastFlush time.Time
	yielded := false
	flush := func() bool {
		if err := bw.Flush(); err != nil {
			sc.die()
			return false
		}
		lastFlush = time.Now()
		sc.lastSend.Store(lastFlush.UnixNano())
		yielded = false
		return true
	}
	// fail counts the frames an encode/flush error strands (the current
	// frame onward) before tearing the connection down.
	fail := func(local []outFrame, from int) {
		var drops, freed int64
		for i := from; i < len(local); i++ {
			drops += frameDropWeight(&local[i])
			freed += local[i].bytes
			local[i].recycle()
		}
		if drops > 0 {
			sc.met.connDrops.Add(drops)
		}
		sc.acct.Release(freed)
		sc.die()
	}
	if err := enc.hello(hello); err != nil {
		sc.die()
		return
	}
	sc.met.frames.Inc()
	for {
		sc.mu.Lock()
		if len(sc.queue) == 0 && !sc.dead && bw.Buffered() > 0 {
			sc.mu.Unlock()
			if !yielded {
				// The Signal that woke this writer made it the next goroutine
				// to run, ahead of the other dispatchers the same commit woke:
				// flushing now would cost a write per watch at one P.
				yielded = true
				runtime.Gosched()
				continue
			}
			// Queue drained: flush what the last rounds encoded before
			// sleeping, so the tail of a burst is never held hostage by the
			// linger.
			if sc.writeTO > 0 {
				sc.conn.SetWriteDeadline(time.Now().Add(sc.writeTO))
			}
			if !flush() {
				return
			}
			sc.mu.Lock()
		}
		for len(sc.queue) == 0 && !sc.dead {
			if sc.draining {
				// Drain complete: final frames are flushed (above), close.
				sc.mu.Unlock()
				sc.die()
				return
			}
			sc.cond.Wait()
		}
		if sc.dead {
			sc.mu.Unlock()
			return
		}
		local, sc.queue = sc.queue, local[:0]
		sc.queuedEvs = 0
		sc.mu.Unlock()

		if sc.writeTO > 0 {
			sc.conn.SetWriteDeadline(time.Now().Add(sc.writeTO))
		}
		for i := range local {
			f := &local[i]
			var err error
			switch f.tag {
			case tagEventBatch:
				evs := f.evs
				if prev != nil && sameRun(*prev, *evs) {
					err = enc.eventRepeat(f.id)
				} else if err = enc.eventBatch(f.id, *evs); err == nil {
					// Keep the run just encoded; the frame recycles the old one.
					prev, f.evs = evs, prev
				}
				if err == nil {
					sc.met.events.Add(int64(len(*evs)))
				}
			case tagProgress:
				err = enc.progress(f.id, f.prog)
			case tagResync:
				err = enc.resync(f.id, f.resync)
			case tagSnapChunk:
				err = enc.snapChunk(f.chunk)
			case tagShutdown:
				err = enc.shutdown(f.aux.(*shutdownMsg))
			case tagOverloaded:
				err = enc.overloaded(f.aux.(*overloadedMsg))
			case tagHeartbeat:
				err = enc.heartbeat()
			}
			if err != nil {
				fail(local, i)
				return
			}
			sc.met.frames.Inc()
			if f.tag == tagSnapChunk {
				sc.met.snapChunks.Inc()
				sc.mu.Lock()
				sc.chunkBytes -= f.chunkSize
				sc.spaceCond.Signal()
				sc.mu.Unlock()
			}
			f.recycle()
			if f.bytes > 0 {
				// Encoded into the socket buffer: off the governed outbox.
				sc.acct.Release(f.bytes)
			}
			local[i] = outFrame{}
			if bw.Buffered() > 0 && time.Since(lastFlush) > flushLinger {
				if !flush() {
					// Frames past i were encoded into the dead buffer.
					fail(local, i+1)
					return
				}
			}
		}
	}
}

// sameRun reports whether b repeats a event for event. Watches with the same
// range and position receive the same run, sharing the stored key and value
// bytes, and string and byte comparisons return at once on a shared pointer,
// so the check costs O(1) per event.
func sameRun(a, b []core.ChangeEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Key != y.Key || x.Version != y.Version || x.Mut.Op != y.Mut.Op || x.Trace != y.Trace ||
			(x.Mut.Value == nil) != (y.Mut.Value == nil) || !bytes.Equal(x.Mut.Value, y.Mut.Value) {
			return false
		}
	}
	return true
}

// ConnInfo is one connection's state, for the debug plane (debugz /conns).
type ConnInfo struct {
	RemoteAddr   string `json:"remote_addr"`
	Watches      int    `json:"watches"`
	QueuedEvents int    `json:"queued_events"`
	Draining     bool   `json:"draining"`
}

// relieveOverflow is the governor's transport reliever: while the process
// is over budget it repeatedly finds the connection holding the most
// charged outbound bytes — a peer that stopped reading while the storm kept
// producing — and overflows its backlog into explicit per-watch resyncs,
// releasing the whole charge at once. This is the same safety valve the
// outboundLimit bound triggers, pulled earlier by memory pressure instead
// of waiting for the event-count bound. Runs on the governor's relief
// goroutine; locks are taken one connection at a time, never nested.
func (s *Server) relieveOverflow(need int64) int64 {
	var freed int64
	for freed < need {
		s.mu.Lock()
		scs := make([]*serverConn, 0, len(s.conns))
		for sc := range s.conns {
			scs = append(scs, sc)
		}
		s.mu.Unlock()
		var worst *serverConn
		var worstBytes int64
		for _, sc := range scs {
			sc.mu.Lock()
			var b int64
			for i := range sc.queue {
				b += sc.queue[i].bytes
			}
			sc.mu.Unlock()
			if b > worstBytes {
				worst, worstBytes = sc, b
			}
		}
		if worst == nil || worstBytes == 0 {
			return freed
		}
		worst.mu.Lock()
		// Re-check under the lock: the write loop may have drained it since.
		var b int64
		for i := range worst.queue {
			b += worst.queue[i].bytes
		}
		if b > 0 {
			worst.overflowLocked()
		}
		worst.mu.Unlock()
		if b == 0 {
			return freed
		}
		freed += b
	}
	return freed
}

// Conns snapshots the server's live connections.
func (s *Server) Conns() []ConnInfo {
	s.mu.Lock()
	scs := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		scs = append(scs, sc)
	}
	s.mu.Unlock()
	out := make([]ConnInfo, 0, len(scs))
	for _, sc := range scs {
		info := ConnInfo{RemoteAddr: sc.conn.RemoteAddr().String()}
		sc.mu.Lock()
		info.Watches = len(sc.watches)
		info.QueuedEvents = sc.queuedEvs
		info.Draining = sc.draining
		sc.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// Shutdown drains the server gracefully: it stops accepting, sends every
// live watch a terminal resync followed by a shutdown marker, flushes each
// connection's queued frames, and closes. Clients therefore learn "server
// going away" explicitly — a reconnecting client will not burn its retry
// budget against a deliberate drain. If ctx expires first, remaining
// connections are torn down abruptly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	scs := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		scs = append(scs, sc)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, sc := range scs {
		sc.beginDrain("remote: server draining")
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, sc := range scs {
			sc.die()
		}
		<-done
		return ctx.Err()
	}
}

// Close stops accepting, drops every connection and cancels their watches.
// Unlike Shutdown it does not drain: clients observe an abrupt connection
// loss, exactly as if the network had died.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	scs := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		scs = append(scs, sc)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, sc := range scs {
		sc.die()
	}
	s.wg.Wait()
}

// Client errors.
var (
	ErrClientClosed = errors.New("remote: client closed")
	// ErrServerDraining marks a terminal client failure caused by a graceful
	// server shutdown: the server announced the drain, so reconnecting is
	// pointless and the consumer must recover against a new endpoint.
	ErrServerDraining = errors.New("remote: server draining")
	// ErrReconnectBudget marks a terminal client failure after the reconnect
	// retry budget was exhausted without re-establishing a connection.
	ErrReconnectBudget = errors.New("remote: reconnect budget exhausted")
)

// ReconnectPolicy governs a Client's automatic recovery from connection
// loss. The zero value disables reconnection (a loss terminally resyncs
// every watch, the pre-resilience behaviour).
type ReconnectPolicy struct {
	// Enabled turns auto-reconnect on.
	Enabled bool
	// MaxAttempts is the budget of consecutive failed dial attempts before
	// the client gives up and terminally resyncs its watches. 0 means the
	// default (8); negative means unlimited.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each failure doubles it up to
	// MaxBackoff, and every wait is jittered in [d/2, d). Defaults 25ms / 1s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed fixes the jitter source for deterministic tests; 0 seeds from
	// the clock.
	Seed int64
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	return p
}

// ClientConfig tunes a Client beyond its defaults.
type ClientConfig struct {
	// Metrics is the registry the client's instruments resolve from; nil uses
	// metrics.Default().
	Metrics *metrics.Registry
	// Tracer, when non-nil, stamps trace.StageRemoteDeliver as traced events
	// are handed to the consumer callback.
	Tracer *trace.Tracer
	// HeartbeatInterval is how often an idle connection carries a
	// client→server heartbeat, announced to the server in the hello so it
	// can size its read deadline. 0 uses the 1s default; negative disables
	// client heartbeats (the server still heartbeats toward the client).
	HeartbeatInterval time.Duration
	// Reconnect governs automatic recovery from connection loss.
	Reconnect ReconnectPolicy
	// Dialer overrides how connections are established (fault injection,
	// proxies). nil uses net.DialTimeout("tcp", addr, 5s). The dialer is
	// invoked again on every reconnect attempt.
	Dialer func(addr string) (net.Conn, error)
	// Recorder, when non-nil, flight-records the client's connection
	// lifecycle: connect, heartbeat miss, disconnect, reconnect, each watch
	// resumed or refused, and termination. Nil disables recording.
	Recorder *flightrec.Recorder
}

// snapResult resolves one in-flight snapshot request.
type snapResult struct {
	entries []core.Entry
	at      core.Version
	err     string
	// overloaded carries a typed admission refusal so callers (most
	// importantly core.ResyncWatcher's recovery loop) can honor the server's
	// retry-after hint via errors.As instead of string-matching err.
	overloaded *govern.Overloaded
}

// snapAccum accumulates a streamed snapshot's chunks until Last. On
// reconnect the request is re-issued and the accumulator reset, so a
// snapshot read survives connection loss transparently. entries belongs to
// the connection's read loop while one runs, and to resume between loops.
type snapAccum struct {
	rng     keyspace.Range
	entries []core.Entry
	ch      chan snapResult
}

// clientWatch is one logical watch, stable across reconnects: the ID the
// server multiplexes on, the consumer callback, and the resume point the
// watch is re-established from after a reconnect.
type clientWatch struct {
	id  uint64
	rng keyspace.Range
	cb  core.WatchCallback
	// resume tracks the highest version this watch has consumed (event or
	// progress); a reconnect re-watches from here, so the stream continues
	// without duplicates and without a resync unless the server's retention
	// can no longer cover the gap.
	resume core.ResumePoint
	// terminal is set once a resync has been delivered (or the client shut
	// down): the watch is dead per the contract — the consumer recovers via
	// snapshot+rewatch — so it is neither resumed nor fed further frames.
	terminal atomic.Bool
}

// clientConn is one physical connection's state. The Client swaps these on
// reconnect; everything logical (watches, snapshots, metrics, trace IDs)
// lives on the Client and survives the swap.
type clientConn struct {
	conn net.Conn
	bw   *bufio.Writer
	enc  *binEncoder // guarded by Client.encMu
	gen  int

	peerHB   atomic.Int64 // server's announced heartbeat interval (ns)
	lastSend atomic.Int64
	done     chan struct{} // closed on teardown; stops the heartbeat loop
	readDone chan struct{} // closed when the read loop has fully exited
	dieOnce  sync.Once
}

func (cc *clientConn) die() {
	cc.dieOnce.Do(func() { close(cc.done) })
	cc.conn.Close()
}

// Client implements core.Watchable and core.Snapshotter against a Server.
// With ReconnectPolicy.Enabled it survives connection loss: watches resume
// from their last delivered/progress version on a fresh connection, and the
// consumer sees a ResyncEvent only when the server can no longer supply the
// gap. Watch IDs and metrics counters stay continuous across reconnects.
type Client struct {
	addr   string
	met    clientMetrics
	tracer *trace.Tracer
	rec    *flightrec.Recorder
	hbIv   time.Duration // negative: send no heartbeats
	policy ReconnectPolicy
	dialer func(addr string) (net.Conn, error)
	jitter *rand.Rand // used only by the single active reconnect loop

	ctx       context.Context
	cancelCtx context.CancelFunc

	mu         sync.Mutex
	cur        *clientConn // nil while disconnected
	gen        int         // bumped whenever cur changes
	lastRead   chan struct{}
	nextID     uint64
	watches    map[uint64]*clientWatch
	snaps      map[uint64]*snapAccum
	closed     bool
	draining   bool  // server announced shutdown
	failed     error // terminal: budget exhausted, drain, or close
	terminated bool  // terminal callbacks already delivered

	encMu sync.Mutex // serializes frame encoding on the current connection
}

var (
	_ core.Watchable   = (*Client)(nil)
	_ core.Snapshotter = (*Client)(nil)
)

// Dial connects to a Server with default configuration.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientConfig{})
}

// DialWith connects to a Server with explicit configuration.
func DialWith(addr string, cfg ClientConfig) (*Client, error) {
	hb := cfg.HeartbeatInterval
	if hb == 0 {
		hb = defaultHeartbeatInterval
	}
	dialer := cfg.Dialer
	if dialer == nil {
		dialer = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, defaultDialTimeout)
		}
	}
	seed := cfg.Reconnect.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		addr:      addr,
		met:       newClientMetrics(cfg.Metrics),
		tracer:    cfg.Tracer,
		rec:       cfg.Recorder,
		hbIv:      hb,
		policy:    cfg.Reconnect.withDefaults(),
		dialer:    dialer,
		jitter:    rand.New(rand.NewSource(seed)),
		ctx:       ctx,
		cancelCtx: cancel,
		watches:   make(map[uint64]*clientWatch),
		snaps:     make(map[uint64]*snapAccum),
	}
	conn, err := dialer(addr)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("remote: dial: %w", err)
	}
	cc := c.installConn(conn)
	if cc == nil {
		cancel()
		conn.Close()
		return nil, ErrClientClosed
	}
	if err := c.handshake(cc); err != nil {
		cc.die()
		cancel()
		return nil, fmt.Errorf("remote: dial: %w", err)
	}
	c.startConn(cc)
	c.rec.Record(flightrec.KindRemoteConnect, flightrec.Event{Comp: "remote.client", ID: int64(cc.gen), Detail: addr})
	return c, nil
}

// installConn makes conn the client's current connection and returns its
// state, or nil if the client closed meanwhile.
func (c *Client) installConn(conn net.Conn) *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	return c.newConnLocked(conn)
}

// newConnLocked wraps conn as the client's current connection. Caller holds
// c.mu.
func (c *Client) newConnLocked(conn net.Conn) *clientConn {
	c.gen++
	cc := &clientConn{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 4<<10),
		gen:      c.gen,
		done:     make(chan struct{}),
		readDone: make(chan struct{}),
	}
	cc.enc = newBinEncoder(cc.bw)
	// Provisional until the server's hello announces its own interval, sized
	// from ours: a connection blackholed right after dial must not hang the
	// read loop forever.
	cc.peerHB.Store(int64(c.hbIv))
	c.cur = cc
	c.lastRead = cc.readDone
	return cc
}

// handshake opens the stream with a hello announcing the protocol version
// and our heartbeat interval.
func (c *Client) handshake(cc *clientConn) error {
	h := &helloMsg{Version: protoVersion, HeartbeatMillis: c.hbIv.Milliseconds()}
	return c.sendOn(cc, func(e *binEncoder) error { return e.hello(h) })
}

// startConn launches the per-connection goroutines.
func (c *Client) startConn(cc *clientConn) {
	go c.readLoop(cc)
	go c.heartbeatLoop(cc)
}

// sendOn encodes one frame on the given connection and flushes: client→server
// traffic is sparse control flow, not the hot path. encMu serializes senders
// (callers, the heartbeat loop, resume) on the connection's one encoder.
func (c *Client) sendOn(cc *clientConn, send func(*binEncoder) error) error {
	c.encMu.Lock()
	defer c.encMu.Unlock()
	if err := send(cc.enc); err != nil {
		return err
	}
	if err := cc.bw.Flush(); err != nil {
		return err
	}
	cc.lastSend.Store(time.Now().UnixNano())
	return nil
}

// heartbeatLoop keeps an idle stream visibly alive toward the server,
// which sizes its read deadline from the interval we announced.
func (c *Client) heartbeatLoop(cc *clientConn) {
	if c.hbIv <= 0 {
		return
	}
	t := time.NewTicker(c.hbIv)
	defer t.Stop()
	for {
		select {
		case <-cc.done:
			return
		case <-t.C:
		}
		if time.Since(time.Unix(0, cc.lastSend.Load())) < c.hbIv {
			continue
		}
		if err := c.sendOn(cc, func(e *binEncoder) error { return e.heartbeat() }); err != nil {
			c.connFailed(cc, err)
			return
		}
		c.met.heartbeats.Inc()
	}
}

// readLoop decodes the server stream for one connection, then hands the
// failure to connFailed. readDone is closed before connFailed runs so that
// anything waiting to take over delivery (reconnect, terminal teardown)
// knows no further callbacks can come from this connection.
func (c *Client) readLoop(cc *clientConn) {
	err := c.readFrames(cc)
	close(cc.readDone)
	c.connFailed(cc, err)
}

// readFrames decodes frames until the connection fails, returning the
// failure. The event-batch decode target is persistent: its Evs backing
// array is reused across batches (the decoder grows it only when a batch
// exceeds the previous capacity, and zeroes recycled elements per frame),
// and a repeat frame delivers it again to the watch the repeat names.
// The stream must open with the server's hello.
func (c *Client) readFrames(cc *clientConn) error {
	dec := newBinDecoder(bufio.NewReaderSize(&countingReader{r: cc.conn, c: c.met.bytes}, connReadBuffer))
	var batch eventBatchMsg
	fail := func(op string, err error) error {
		if connLossErr(err) {
			return err
		}
		c.met.decodeErrs.Inc()
		return &ProtocolError{Op: op, Err: err}
	}
	// Coarse deadline re-arm (see serveConn): one syscall per TO/4, not per
	// frame, stretching the effective timeout to at most 1.25×.
	var armedAt time.Time
	var armedTO time.Duration
	for first := true; ; first = false {
		to := readTimeoutFor(cc.peerHB.Load())
		if now := time.Now(); to != armedTO || now.Sub(armedAt) > to/4 {
			cc.conn.SetReadDeadline(now.Add(to))
			armedAt, armedTO = now, to
		}
		tag, err := dec.readTag()
		if err != nil {
			return fail("tag", err)
		}
		if first {
			var h helloMsg
			if err := expectHello(dec, tag, &h); err != nil {
				c.met.decodeErrs.Inc()
				return err
			}
			cc.peerHB.Store(int64(time.Duration(h.HeartbeatMillis) * time.Millisecond))
			continue
		}
		switch tag {
		case tagHeartbeat:
			// Liveness only: the next loop iteration re-arms the deadline.
		case tagShutdown:
			var m shutdownMsg
			if err := dec.decodeShutdown(&m); err != nil {
				return fail("shutdown", err)
			}
			c.mu.Lock()
			c.draining = true
			c.mu.Unlock()
		case tagEventBatch:
			if err := dec.decodeEventBatch(&batch); err != nil {
				return fail("event batch", err)
			}
			c.met.frames.Inc()
			c.met.events.Add(int64(len(batch.Evs)))
			c.deliverBatch(&batch)
		case tagEventRepeat:
			if err := dec.decodeEventRepeat(&batch); err != nil {
				return fail("event repeat", err)
			}
			c.met.frames.Inc()
			c.met.events.Add(int64(len(batch.Evs)))
			c.deliverBatch(&batch)
		case tagProgress:
			var m progressMsg
			if err := dec.decodeProgress(&m); err != nil {
				return fail("progress", err)
			}
			c.met.frames.Inc()
			if w := c.watchFor(m.ID); w != nil {
				w.resume.NoteProgress(m.P)
				w.cb.OnProgress(m.P)
			}
		case tagResync:
			var m resyncMsg
			if err := dec.decodeResync(&m); err != nil {
				return fail("resync", err)
			}
			c.met.frames.Inc()
			if w := c.watchFor(m.ID); w != nil {
				w.terminal.Store(true)
				c.met.resyncs.Inc()
				w.cb.OnResync(m.R)
			}
		case tagSnapChunk:
			if err := c.readSnapChunk(dec); err != nil {
				return fail("snapshot chunk", err)
			}
			c.met.frames.Inc()
		case tagOverloaded:
			var m overloadedMsg
			if err := dec.decodeOverloaded(&m); err != nil {
				return fail("overloaded", err)
			}
			c.met.frames.Inc()
			c.handleOverloaded(&m)
		default:
			c.met.decodeErrs.Inc()
			return &ProtocolError{Op: "tag", Err: fmt.Errorf("unknown frame tag %d", tag)}
		}
	}
}

// watchFor returns the live (non-terminal) watch for id.
func (c *Client) watchFor(id uint64) *clientWatch {
	c.mu.Lock()
	w := c.watches[id]
	c.mu.Unlock()
	if w == nil || w.terminal.Load() {
		return nil
	}
	return w
}

func (c *Client) deliverBatch(m *eventBatchMsg) {
	w := c.watchFor(m.ID)
	if w == nil {
		return
	}
	traced := c.tracer.Enabled()
	for i := range m.Evs {
		ev := m.Evs[i]
		if traced && ev.Trace != 0 {
			c.tracer.Record(ev.Trace, trace.StageRemoteDeliver)
		}
		w.resume.NoteEvent(ev)
		w.cb.OnEvent(ev)
	}
}

// readSnapChunk decodes one snapshot chunk straight onto its request's
// accumulator. A chunk for a request that is gone is still decoded, into
// nothing, so a malformed one is caught all the same.
func (c *Client) readSnapChunk(dec *binDecoder) error {
	var m snapChunk
	if err := dec.decodeSnapChunk(&m); err != nil {
		return err
	}
	c.mu.Lock()
	acc := c.snaps[m.ID]
	c.mu.Unlock()
	if acc == nil {
		_, err := dec.decodeSnapEntries(nil)
		return err
	}
	if m.Bound > 0 && !m.Last && acc.entries == nil {
		acc.entries = make([]core.Entry, 0, m.Bound)
	}
	entries, err := dec.decodeSnapEntries(acc.entries)
	if err != nil {
		return err
	}
	acc.entries = entries
	if m.Err == "" && !m.Last {
		return nil
	}
	c.mu.Lock()
	delete(c.snaps, m.ID)
	c.mu.Unlock()
	if m.Err != "" {
		acc.ch <- snapResult{err: m.Err}
	} else {
		acc.ch <- snapResult{entries: acc.entries, at: m.At}
	}
	return nil
}

// handleOverloaded resolves a server-side admission refusal for one request.
// A refused snapshot fails with the typed error (its caller owns the retry
// policy). A refused watch is retried here after the server's retry-after
// hint — the watch was never established server-side, so nothing else will
// revive it — unless reconnection is disabled, in which case the refusal
// degrades to the pre-resilience contract: a terminal resync.
func (c *Client) handleOverloaded(m *overloadedMsg) {
	retry := time.Duration(m.RetryAfterMillis) * time.Millisecond
	if retry <= 0 {
		retry = 100 * time.Millisecond
	}
	c.met.overloaded.Inc()
	c.mu.Lock()
	if acc := c.snaps[m.ID]; acc != nil {
		delete(c.snaps, m.ID)
		c.mu.Unlock()
		acc.ch <- snapResult{overloaded: &govern.Overloaded{RetryAfter: retry, Reason: m.Reason}}
		return
	}
	c.mu.Unlock()
	w := c.watchFor(m.ID)
	if w == nil {
		return
	}
	if !c.policy.Enabled {
		w.terminal.Store(true)
		c.met.resyncs.Inc()
		w.cb.OnResync(core.ResyncEvent{Range: w.rng, Reason: "server overloaded: " + m.Reason})
		return
	}
	// Extra jitter on top of the server's (already jittered) hint, from the
	// global source: c.jitter belongs to the reconnect loop's goroutine.
	wait := retry + time.Duration(rand.Int63n(int64(retry)/4+1))
	c.rec.Record(flightrec.KindWatchRefused, flightrec.Event{
		Comp: "remote.client", ID: int64(m.ID), N: wait.Milliseconds(), Detail: m.Reason,
	})
	time.AfterFunc(wait, func() { c.retryWatch(w) })
}

// retryWatch re-requests one admission-refused watch from its resume point.
// No-op when the watch was cancelled, went terminal, or the client failed
// meanwhile; when the connection is down, the reconnect path re-establishes
// the watch along with the rest.
func (c *Client) retryWatch(w *clientWatch) {
	c.mu.Lock()
	if c.closed || c.failed != nil || c.watches[w.id] != w || w.terminal.Load() {
		c.mu.Unlock()
		return
	}
	cc := c.cur
	c.mu.Unlock()
	if cc == nil {
		return
	}
	req := &watchReq{ID: w.id, Low: w.rng.Low, High: w.rng.High, From: w.resume.Version()}
	if err := c.sendOn(cc, func(e *binEncoder) error { return e.watch(req) }); err != nil {
		c.connFailed(cc, err)
	}
}

// connFailed handles the loss of one connection. Exactly one caller per
// connection transitions the client: either into a reconnect (resume every
// watch on a fresh connection) or into terminal teardown (resync every
// watch, fail every snapshot). Later callers and stale connections no-op.
func (c *Client) connFailed(cc *clientConn, err error) {
	cc.die()
	c.mu.Lock()
	if c.cur != cc {
		c.mu.Unlock()
		return // stale: a newer connection (or this failure) was already handled
	}
	c.cur = nil
	c.gen++
	gen := c.gen
	closed, draining := c.closed, c.draining
	reconnect := c.policy.Enabled && !closed && !draining
	c.mu.Unlock()

	c.met.connLost.Inc()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.met.hbMisses.Inc()
		c.rec.Record(flightrec.KindHeartbeatMiss, flightrec.Event{
			Comp: "remote.client", ID: int64(cc.gen), Detail: "server silent past heartbeat deadline",
		})
	}
	cause := ""
	if err != nil {
		cause = err.Error()
	}
	c.rec.Record(flightrec.KindRemoteDisconnect, flightrec.Event{
		Comp: "remote.client", ID: int64(cc.gen), Detail: cause,
	})
	switch {
	case closed:
		c.terminate("remote: client closed", ErrClientClosed)
	case draining:
		c.terminate("remote: server draining", ErrServerDraining)
	case !reconnect:
		c.terminate("remote: connection lost: "+err.Error(), err)
	default:
		go c.reconnectLoop(gen, cc.readDone)
	}
}

// terminate delivers the terminal teardown exactly once: every non-terminal
// watch gets a final resync with the given reason, every in-flight snapshot
// fails, and the client refuses further requests with err. It waits for the
// last read loop to exit first, so terminal callbacks never race delivery.
func (c *Client) terminate(reason string, err error) {
	c.mu.Lock()
	if c.terminated {
		c.mu.Unlock()
		return
	}
	c.terminated = true
	if c.failed == nil {
		c.failed = err
	}
	last := c.lastRead
	c.mu.Unlock()
	if last != nil {
		<-last
	}

	c.mu.Lock()
	var watches []*clientWatch
	for _, w := range c.watches {
		if !w.terminal.Load() {
			w.terminal.Store(true)
			watches = append(watches, w)
		}
	}
	snaps := c.snaps
	c.snaps = map[uint64]*snapAccum{}
	c.mu.Unlock()

	if len(watches) > 0 {
		c.met.resyncs.Add(int64(len(watches)))
	}
	c.rec.Record(flightrec.KindRemoteDisconnect, flightrec.Event{
		Comp: "remote.client", N: int64(len(watches)), Detail: reason,
	})
	for _, w := range watches {
		w.cb.OnResync(core.ResyncEvent{Range: w.rng, Reason: reason})
	}
	for _, acc := range snaps {
		acc.ch <- snapResult{err: reason}
	}
}

// reconnectLoop redials with exponential backoff + jitter until the retry
// budget runs out, then terminates the client. Exactly one loop is active at
// a time (connFailed spawns it only for the generation it retired), so the
// jitter source needs no lock. It first waits for the failed connection's
// read loop to exit, guaranteeing the resume points are final and no two
// goroutines ever deliver to the same callback.
func (c *Client) reconnectLoop(gen int, prevRead chan struct{}) {
	select {
	case <-prevRead:
	case <-c.ctx.Done():
		c.terminate("remote: client closed", ErrClientClosed)
		return
	}
	backoff := c.policy.BaseBackoff
	for attempt := 1; ; attempt++ {
		wait := backoff/2 + time.Duration(c.jitter.Int63n(int64(backoff/2)+1))
		select {
		case <-c.ctx.Done():
			c.terminate("remote: client closed", ErrClientClosed)
			return
		case <-time.After(wait):
		}
		c.mu.Lock()
		stale := c.closed || c.gen != gen
		c.mu.Unlock()
		if stale {
			return
		}
		conn, err := c.dialer(c.addr)
		if err == nil {
			if err = c.resume(gen, conn); err == nil {
				return
			}
			conn.Close()
		}
		c.met.reconnectFails.Inc()
		if c.policy.MaxAttempts >= 0 && attempt >= c.policy.MaxAttempts {
			c.terminate(
				fmt.Sprintf("remote: connection lost; reconnect gave up after %d attempts: %v", attempt, err),
				fmt.Errorf("%w after %d attempts: %v", ErrReconnectBudget, attempt, err))
			return
		}
		if backoff *= 2; backoff > c.policy.MaxBackoff {
			backoff = c.policy.MaxBackoff
		}
	}
}

// resume installs conn as the new current connection and re-establishes the
// client's logical state on it: hello, then every live watch from its resume
// point, then every pending snapshot from scratch. Watch IDs are reused, so
// server-side multiplexing, client metrics and trace stages all continue as
// if the connection had never dropped.
func (c *Client) resume(gen int, conn net.Conn) error {
	c.mu.Lock()
	if c.closed || c.gen != gen {
		c.mu.Unlock()
		return ErrClientClosed
	}
	cc := c.newConnLocked(conn)
	gen = c.gen
	var watches []*clientWatch
	for _, w := range c.watches {
		if !w.terminal.Load() {
			watches = append(watches, w)
		}
	}
	var snaps []*snapAccum
	snapIDs := make([]uint64, 0, len(c.snaps))
	for id, acc := range c.snaps {
		acc.entries = nil // restart accumulation: the old stream died mid-way
		snaps = append(snaps, acc)
		snapIDs = append(snapIDs, id)
	}
	c.mu.Unlock()

	if err := c.handshake(cc); err != nil {
		c.dropConn(cc)
		return err
	}
	for _, w := range watches {
		from := w.resume.Version()
		req := &watchReq{ID: w.id, Low: w.rng.Low, High: w.rng.High, From: from}
		if err := c.sendOn(cc, func(e *binEncoder) error { return e.watch(req) }); err != nil {
			c.dropConn(cc)
			return err
		}
		c.met.resumedWatches.Inc()
		c.rec.Record(flightrec.KindRemoteResume, flightrec.Event{
			Comp: "remote.client", ID: int64(w.id), Version: uint64(from),
		})
	}
	for i, acc := range snaps {
		req := &snapshotReq{ID: snapIDs[i], Low: acc.rng.Low, High: acc.rng.High}
		if err := c.sendOn(cc, func(e *binEncoder) error { return e.snapshot(req) }); err != nil {
			c.dropConn(cc)
			return err
		}
	}
	c.met.reconnects.Inc()
	c.rec.Record(flightrec.KindRemoteReconnect, flightrec.Event{
		Comp: "remote.client", ID: int64(cc.gen), N: int64(len(watches)),
	})
	c.startConn(cc)
	return nil
}

// dropConn retires a connection that failed during resume, before its read
// loop ever started: the caller (the reconnect loop) keeps driving recovery.
func (c *Client) dropConn(cc *clientConn) {
	cc.die()
	close(cc.readDone)
	c.mu.Lock()
	if c.cur == cc {
		c.cur = nil
		c.gen++
	}
	c.mu.Unlock()
}

// Watch implements core.Watchable over the wire. With reconnection enabled
// the watch survives connection loss transparently (resuming from its last
// delivered/progress version); it fails over to an explicit resync only when
// the server cannot supply the gap, the reconnect budget runs out, or the
// server drains.
func (c *Client) Watch(r keyspace.Range, from core.Version, cb core.WatchCallback) (core.Cancel, error) {
	if cb == nil {
		return nil, fmt.Errorf("%w: nil callback", core.ErrBadWatch)
	}
	if r.Empty() {
		return nil, fmt.Errorf("%w: empty range %v", core.ErrBadWatch, r)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: watch: %w", err)
	}
	c.nextID++
	id := c.nextID
	w := &clientWatch{id: id, rng: r, cb: cb}
	w.resume.Reset(from)
	c.watches[id] = w
	cc := c.cur
	c.mu.Unlock()

	if cc != nil {
		req := &watchReq{ID: id, Low: r.Low, High: r.High, From: from}
		if err := c.sendOn(cc, func(e *binEncoder) error { return e.watch(req) }); err != nil {
			if !c.policy.Enabled {
				c.mu.Lock()
				delete(c.watches, id)
				c.mu.Unlock()
				return nil, fmt.Errorf("remote: watch: %w", err)
			}
			// The connection is dying; the reconnect path re-establishes
			// this watch along with the rest.
			c.connFailed(cc, err)
		}
	}
	// cc == nil: a reconnect is in flight and will establish the watch.
	c.met.watches.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			delete(c.watches, id)
			cc := c.cur
			c.mu.Unlock()
			if cc != nil {
				_ = c.sendOn(cc, func(e *binEncoder) error { return e.cancelWatch(&cancelReq{ID: id}) })
			}
		})
	}, nil
}

// SnapshotRange implements core.Snapshotter over the wire: the recovery read
// travels through the same connection, so a consumer needs only the client.
// The response arrives as bounded chunks reassembled here. With reconnection
// enabled the request is re-issued on a fresh connection if the current one
// dies mid-stream; it fails only on terminal client failure.
func (c *Client) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	acc := &snapAccum{rng: r, ch: make(chan snapResult, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrClientClosed
	}
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("remote: snapshot: %w", err)
	}
	c.nextID++
	id := c.nextID
	c.snaps[id] = acc
	cc := c.cur
	c.mu.Unlock()

	if cc != nil {
		req := &snapshotReq{ID: id, Low: r.Low, High: r.High}
		if err := c.sendOn(cc, func(e *binEncoder) error { return e.snapshot(req) }); err != nil {
			if !c.policy.Enabled {
				c.mu.Lock()
				delete(c.snaps, id)
				c.mu.Unlock()
				return nil, 0, fmt.Errorf("remote: snapshot: %w", err)
			}
			c.connFailed(cc, err)
		}
	}
	c.met.snapshots.Inc()
	res, ok := <-acc.ch
	if !ok {
		return nil, 0, fmt.Errorf("remote: snapshot: %w", io.ErrUnexpectedEOF)
	}
	if res.overloaded != nil {
		return nil, 0, fmt.Errorf("remote: snapshot: %w", res.overloaded)
	}
	if res.err != "" {
		return nil, 0, fmt.Errorf("remote: snapshot: %s", res.err)
	}
	return res.entries, res.at, nil
}

// Close drops the connection and stops any reconnect in flight; active
// watches receive a final resync. Safe to call at any point, including
// mid-dial and mid-decode: the read loop owns delivery until it exits, and
// the terminal callbacks run only after it has.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	cc := c.cur
	c.mu.Unlock()
	c.cancelCtx()
	if cc != nil {
		cc.die() // the read loop fails next and routes into terminate
	} else {
		// Disconnected (reconnect was in flight): nothing will fail on our
		// behalf, deliver the terminal teardown directly.
		c.met.connLost.Inc()
		c.terminate("remote: client closed", ErrClientClosed)
	}
}
