package remote

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrChaosDialRefused is returned by a chaos dialer that was told to fail
// the attempt (ChaosController.FailNextDials).
var ErrChaosDialRefused = errors.New("chaosconn: dial refused by fault script")

// ErrChaosSevered is returned from reads and writes on a connection whose
// byte budget (DropAfterReadBytes / DropAfterWriteBytes) ran out.
var ErrChaosSevered = errors.New("chaosconn: connection severed by fault script")

// ChaosConfig scripts the faults a ChaosConn injects. The zero value injects
// nothing — the conn is a transparent wrapper.
type ChaosConfig struct {
	// Seed fixes the corruption RNG for reproducible runs; 0 seeds from the
	// clock.
	Seed int64
	// ReadLatency / WriteLatency delay every read / write by the given
	// duration (before deadline accounting: a latency above the peer's read
	// deadline looks exactly like a stalled network).
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// DropAfterReadBytes / DropAfterWriteBytes sever the connection (both
	// directions) once that many bytes have passed in the given direction.
	// 0 means unlimited.
	DropAfterReadBytes  int64
	DropAfterWriteBytes int64
	// CorruptOneIn flips one byte in roughly one out of every N reads —
	// the frame stream downstream fails to decode, which must surface as a
	// typed protocol error, never a hang. 0 disables corruption.
	CorruptOneIn int
	// MaxWriteChunk caps how many bytes one Write passes through, forcing
	// the short-write paths in the writer above. 0 means unlimited.
	MaxWriteChunk int
}

// ChaosController scripts faults across a set of connections — everything a
// chaos test needs to partition, stall, and heal the transport on cue. Its
// Dialer method plugs into ClientConfig.Dialer, so every connection a Client
// establishes (including reconnects) is wrapped and registered here.
type ChaosController struct {
	cfg       ChaosConfig
	failDials atomic.Int64
	holdReads atomic.Bool // controller-wide read stall (writes still pass)
	dials     atomic.Int64

	mu   sync.Mutex
	live map[*ChaosConn]struct{}
}

// NewChaosController returns a controller whose dialed connections inject
// the given faults.
func NewChaosController(cfg ChaosConfig) *ChaosController {
	return &ChaosController{cfg: cfg, live: make(map[*ChaosConn]struct{})}
}

// Dialer returns a dial function for ClientConfig.Dialer: a TCP dial whose
// connection is wrapped in a ChaosConn registered with the controller.
func (cc *ChaosController) Dialer() func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if n := cc.failDials.Load(); n > 0 && cc.failDials.CompareAndSwap(n, n-1) {
			return nil, ErrChaosDialRefused
		}
		conn, err := net.DialTimeout("tcp", addr, defaultDialTimeout)
		if err != nil {
			return nil, err
		}
		cc.dials.Add(1)
		return cc.Wrap(conn), nil
	}
}

// Wrap registers conn with the controller and returns its chaos wrapper.
func (cc *ChaosController) Wrap(conn net.Conn) *ChaosConn {
	ch := &ChaosConn{Conn: conn, ctrl: cc, cfg: cc.cfg}
	if cc.cfg.Seed != 0 {
		ch.rng = rand.New(rand.NewSource(cc.cfg.Seed))
	} else {
		ch.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	cc.mu.Lock()
	cc.live[ch] = struct{}{}
	cc.mu.Unlock()
	return ch
}

// Dials reports how many connections the controller's dialer established.
func (cc *ChaosController) Dials() int { return int(cc.dials.Load()) }

// FailNextDials makes the next n dial attempts fail with
// ErrChaosDialRefused, exercising the client's backoff and retry budget.
func (cc *ChaosController) FailNextDials(n int) { cc.failDials.Store(int64(n)) }

// SeverAll abruptly closes every live connection — the scripted equivalent
// of a network partition killing established flows. New dials succeed.
func (cc *ChaosController) SeverAll() {
	for _, ch := range cc.snapshot() {
		ch.Close()
	}
}

// BlackholeLive half-opens every currently live connection: reads block
// (honoring deadlines) and writes are swallowed, so without heartbeats
// neither end ever learns the peer is gone. Connections dialed afterwards
// are unaffected — the scripted NAT state reset.
func (cc *ChaosController) BlackholeLive() {
	for _, ch := range cc.snapshot() {
		ch.blackhole.Store(true)
	}
}

// HoldReads stalls reads on every connection (live and future) without
// touching writes — a reader that stops draining while the sender keeps
// sending, the shape that must convert to outbox overflow→resync upstream.
// ReleaseReads lifts the stall.
func (cc *ChaosController) HoldReads()    { cc.holdReads.Store(true) }
func (cc *ChaosController) ReleaseReads() { cc.holdReads.Store(false) }

func (cc *ChaosController) snapshot() []*ChaosConn {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make([]*ChaosConn, 0, len(cc.live))
	for ch := range cc.live {
		out = append(out, ch)
	}
	return out
}

func (cc *ChaosController) forget(ch *ChaosConn) {
	cc.mu.Lock()
	delete(cc.live, ch)
	cc.mu.Unlock()
}

// ChaosConn is a net.Conn wrapper that injects scripted faults: latency,
// partial writes, byte corruption, byte-budget severing, controller-driven
// read stalls and blackholes. A blocked (stalled or blackholed) read still
// honors the connection's read deadline — returning os.ErrDeadlineExceeded
// past it — because that is precisely the machinery under test: a transport
// without deadlines hangs here forever, one with them detects the fault.
type ChaosConn struct {
	net.Conn
	ctrl *ChaosController
	cfg  ChaosConfig

	readDeadline atomic.Int64 // UnixNano; 0 = none
	blackhole    atomic.Bool
	closed       atomic.Bool
	readBytes    atomic.Int64
	writeBytes   atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// blockWhile parks until cond() turns false, the read deadline expires, or
// the connection closes. It polls — chaos tests run on millisecond scales,
// and polling keeps the deadline semantics trivially correct.
func (ch *ChaosConn) blockWhile(cond func() bool) error {
	for cond() {
		if ch.closed.Load() {
			return net.ErrClosed
		}
		if d := ch.readDeadline.Load(); d != 0 && time.Now().UnixNano() >= d {
			return os.ErrDeadlineExceeded
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (ch *ChaosConn) Read(p []byte) (int, error) {
	if err := ch.blockWhile(func() bool {
		return ch.blackhole.Load() || ch.ctrl.holdReads.Load()
	}); err != nil {
		return 0, err
	}
	if ch.cfg.ReadLatency > 0 {
		time.Sleep(ch.cfg.ReadLatency)
	}
	if lim := ch.cfg.DropAfterReadBytes; lim > 0 && ch.readBytes.Load() >= lim {
		ch.Close()
		return 0, ErrChaosSevered
	}
	n, err := ch.Conn.Read(p)
	ch.readBytes.Add(int64(n))
	if n > 0 && ch.cfg.CorruptOneIn > 0 {
		ch.rngMu.Lock()
		if ch.rng.Intn(ch.cfg.CorruptOneIn) == 0 {
			p[ch.rng.Intn(n)] ^= 0xff
		}
		ch.rngMu.Unlock()
	}
	return n, err
}

func (ch *ChaosConn) Write(p []byte) (int, error) {
	if ch.blackhole.Load() {
		return len(p), nil // swallowed: the peer never sees it
	}
	if ch.cfg.WriteLatency > 0 {
		time.Sleep(ch.cfg.WriteLatency)
	}
	if lim := ch.cfg.DropAfterWriteBytes; lim > 0 && ch.writeBytes.Load() >= lim {
		ch.Close()
		return 0, ErrChaosSevered
	}
	if max := ch.cfg.MaxWriteChunk; max > 0 && len(p) > max {
		p = p[:max] // short write; bufio above retries the remainder
	}
	n, err := ch.Conn.Write(p)
	ch.writeBytes.Add(int64(n))
	return n, err
}

func (ch *ChaosConn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		ch.readDeadline.Store(0)
	} else {
		ch.readDeadline.Store(t.UnixNano())
	}
	return ch.Conn.SetReadDeadline(t)
}

func (ch *ChaosConn) SetDeadline(t time.Time) error {
	if t.IsZero() {
		ch.readDeadline.Store(0)
	} else {
		ch.readDeadline.Store(t.UnixNano())
	}
	return ch.Conn.SetDeadline(t)
}

func (ch *ChaosConn) Close() error {
	ch.closed.Store(true)
	if ch.ctrl != nil {
		ch.ctrl.forget(ch)
	}
	return ch.Conn.Close()
}
