package remote

import (
	"fmt"
	"io"
	"sync"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// Wire protocol: every message is a tag-first, length-prefixed binary frame
// (layout and payloads in codec.go), and there is exactly one version.
//
// Client → server: tagHello, tagWatch, tagCancel, tagSnapshot, tagHeartbeat.
// Server → client: tagHello, tagEventBatch, tagEventRepeat, tagProgress,
// tagResync, tagSnapChunk, tagOverloaded, tagHeartbeat, tagShutdown.
//
// Each end opens its direction with tagHello announcing protoVersion and its
// heartbeat interval; the receiver checks the version and sizes its read
// deadline from the interval, so a half-open connection is detected in
// O(heartbeat interval) and the two ends never need to agree on one global
// value. A first frame that is not a hello, or a hello announcing any other
// version, is a ProtocolError that closes the connection. After the hello
// both ends send tagHeartbeat on an idle stream.
//
// A whole ring-drain's worth of events for one watch travels as one
// tagEventBatch frame; when it is the run the connection's previous batch
// carried, it travels as a tagEventRepeat naming only the watch. Snapshot
// responses stream as bounded tagSnapChunk
// frames. tagShutdown is the graceful-drain marker: the server sends it after
// the terminal per-watch resyncs so clients can tell "server going away" (do
// not reconnect) from "network died" (reconnect and resume).
const (
	tagWatch uint8 = iota + 1
	tagCancel
	tagSnapshot
	tagEventBatch
	tagProgress
	tagResync
	tagSnapChunk
	tagHello
	tagHeartbeat
	tagShutdown
	_ // 11 is reserved: it was the codec switch marker of a retired protocol
	// tagOverloaded (server → client) rejects one watch or snapshot request
	// with a retry-after hint: the serving stack is admission-controlling
	// under memory pressure (govern.ErrOverloaded). Unlike tagResync it is not
	// a statement about lost history — the client should back off and
	// re-request, resuming from its frontier.
	tagOverloaded
	// tagEventRepeat (server → client) delivers the connection's previous
	// event batch again, to another watch: a run several watches on one
	// connection receive crosses the socket once.
	tagEventRepeat
)

// protoVersion is the one wire protocol version both ends speak.
const protoVersion = 6

// helloMsg opens the stream in each direction: the sender's protocol version
// and the interval at which it will emit heartbeats on an idle stream.
type helloMsg struct {
	Version         uint32
	HeartbeatMillis int64
}

// expectHello decodes the first frame of a stream, whose tag the caller has
// just read: it must be a hello announcing protoVersion.
func expectHello(dec *binDecoder, tag uint8, h *helloMsg) error {
	if tag != tagHello {
		return &ProtocolError{Op: "hello", Err: fmt.Errorf("first frame has tag %d, not hello", tag)}
	}
	if err := dec.decodeHello(h); err != nil {
		return &ProtocolError{Op: "hello", Err: err}
	}
	if h.Version != protoVersion {
		return &ProtocolError{Op: "hello", Err: fmt.Errorf("peer speaks protocol %d, this end speaks %d", h.Version, protoVersion)}
	}
	return nil
}

// shutdownMsg is the graceful-drain marker. It follows the terminal
// per-watch resync frames; after it the server flushes and closes.
type shutdownMsg struct {
	Reason string
}

// ProtocolError reports a wire-level violation: a corrupt frame, an unknown
// tag, a bad opening hello, or a payload that fails to decode. It is terminal for the connection
// it occurred on — the stream position is unrecoverable after a failed
// decode — and is counted in remote_{server,client}_decode_errors_total.
type ProtocolError struct {
	Op  string // what was being decoded ("tag", "watch request", ...)
	Err error
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("remote: protocol error decoding %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying decode error.
func (e *ProtocolError) Unwrap() error { return e.Err }

type watchReq struct {
	ID   uint64
	Low  keyspace.Key
	High keyspace.Key
	From core.Version
}

type cancelReq struct{ ID uint64 }

type snapshotReq struct {
	ID   uint64
	Low  keyspace.Key
	High keyspace.Key
}

// eventBatchMsg carries one contiguous run of change events for one watch —
// the unit the hub's dispatch loop hands over via core.EventBatchCallback,
// preserved across the wire instead of flattened into per-event frames.
type eventBatchMsg struct {
	ID  uint64
	Evs []core.ChangeEvent
}

type progressMsg struct {
	ID uint64
	P  core.ProgressEvent
}

type resyncMsg struct {
	ID uint64
	R  core.ResyncEvent
}

// overloadedMsg rejects the watch or snapshot request with the given ID.
// RetryAfterMillis carries the governor's backoff hint so remote clients
// wait out the server's pressure instead of hammering it.
type overloadedMsg struct {
	ID               uint64
	RetryAfterMillis int64
	Reason           string
}

// snapChunk is one bounded slice of a streamed snapshot response. The client
// accumulates Entries across chunks until Last; Err (with Last=true) aborts
// the snapshot. At repeats the snapshot version on every chunk. Bound, on the
// first chunk of a response, is the server's upper bound on the response's
// entry count (0 = unknown): the client sizes its accumulator from it and
// trusts it for nothing else.
type snapChunk struct {
	ID      uint64
	Entries []core.Entry // server side only: the client decodes onto its accumulator
	At      core.Version
	Bound   int
	Err     string
	Last    bool
}

// chunkPool recycles snapshot chunks, each with a snapChunkEntries-capacity
// entry buffer, from the streamer that fills one to the writer that encodes
// it (the evsPool pattern). Entries beyond len are always zero, so clearing
// the used prefix leaves no key or value reference behind in the pool.
var chunkPool = sync.Pool{
	New: func() any {
		return &snapChunk{Entries: make([]core.Entry, 0, snapChunkEntries)}
	},
}

func getChunk() *snapChunk { return chunkPool.Get().(*snapChunk) }

func putChunk(ch *snapChunk) {
	clear(ch.Entries)
	*ch = snapChunk{Entries: ch.Entries[:0]}
	chunkPool.Put(ch)
}

// evsPool recycles the event slices that carry batches from the hub's
// dispatch goroutine into a connection's outbound queue. A pooled slice is
// cleared before reuse so no event payload outlives its frame.
var evsPool = sync.Pool{
	New: func() any {
		s := make([]core.ChangeEvent, 0, 64)
		return &s
	},
}

func getEvs(n int) *[]core.ChangeEvent {
	p := evsPool.Get().(*[]core.ChangeEvent)
	if cap(*p) < n {
		*p = make([]core.ChangeEvent, 0, n)
	}
	return p
}

func putEvs(p *[]core.ChangeEvent) {
	s := (*p)[:cap(*p)]
	for i := range s {
		s[i] = core.ChangeEvent{} // release Value/Key refs held by the pool
	}
	*p = s[:0]
	evsPool.Put(p)
}

// countingWriter counts bytes that actually reach the underlying socket (it
// sits below any buffering, so the counter reflects wire traffic).
type countingWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(int64(n))
	}
	return n, err
}

// countingReader mirrors countingWriter on the receive side.
type countingReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(int64(n))
	}
	return n, err
}
