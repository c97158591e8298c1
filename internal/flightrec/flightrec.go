// Package flightrec is the watch stack's black box: an always-on,
// fixed-memory flight recorder plus anomaly detectors that capture a
// self-contained dump the moment something goes wrong.
//
// The paper's core indictment of pubsub is that its failures are silent —
// retention GC loss and consumer lag surface only as downstream damage
// discovered much later (§3.1). The watch contract makes divergence
// *detectable* (progress, resync), but detection is only useful if the
// system records what happened around the moment of divergence: by the time
// anyone scrapes /metrics, the burst that mattered is gone. The flight
// recorder keeps the recent past — every rare-but-significant lifecycle
// event, typed and timestamped — in bounded memory at all times, so an
// anomaly trigger can freeze a coherent timeline instead of an aggregate.
//
// Three layers, mirroring an aircraft recorder:
//
//  1. Recording (this file): per-shard mutex-guarded rings of typed Records.
//     Producers call Record at existing lifecycle hook points — watcher
//     add/remove/lag-out, segment seal/retire, remote connect/disconnect/
//     heartbeat-miss/reconnect/resume/drain, pubsub GC drops and DLQ
//     routing, sharder range moves. These are rare events (never per-append,
//     never per-delivery), so a short critical section per record is cheap;
//     a nil *Recorder costs one branch, the same discipline as trace.Tracer.
//     The causes an autopsy needs (lag-outs, wipes, connection loss,
//     pressure, GC drops) go to one more ring of their own, so a storm of
//     watcher churn cannot overwrite them.
//  2. Detection (detect.go): detectors evaluated on clockwork ticks against
//     EWMA baselines, with hysteresis so steady-state noise never fires.
//  3. Capture (capture.go): on trigger, atomically assemble a dump — the
//     recorder tail, recently completed traces, a metrics snapshot delta,
//     the watcher-lag table, optionally a goroutine profile.
package flightrec

import (
	"sort"
	"sync"
	"sync/atomic"

	"unbundle/internal/clockwork"
	"unbundle/internal/metrics"
	"unbundle/internal/trace"
)

// Kind types a recorded event. The set covers the lifecycle transitions of
// every subsystem in the watch stack; per-event data paths (appends,
// deliveries) are deliberately absent — those are what metrics and sampled
// traces are for.
type Kind uint8

const (
	KindUnknown Kind = iota

	// Hub watcher lifecycle.
	KindWatcherAdd    // watch registered (ID = watcher id)
	KindWatcherRemove // watch cancelled
	KindWatcherLagOut // watcher cut over to resync (Detail = reason)
	KindHubWipe       // hub soft state discarded, every watcher resynced

	// Hub retention window.
	KindSegmentSeal   // active tail sealed (N = events, Version = maxVer)
	KindSegmentRetire // fully-trimmed segment dropped (N = events evicted through it)

	// Remote transport, server side.
	KindRemoteConnect    // server accepted a connection (ID = conn id)
	KindRemoteDisconnect // connection died (Detail = cause; server: N = queued events dropped), or a client terminated (N = watches resynced)
	KindRemoteOverflow   // server outbox overflow, watches resynced (N = watches)
	KindRemoteDrain      // graceful drain began

	// Remote transport, client side (and heartbeat loss on either side).
	KindHeartbeatMiss   // read deadline expired with no frame: peer silent
	KindRemoteReconnect // client re-established a session (ID = generation)
	KindRemoteResume    // one watch re-requested after reconnect (ID = watch id, Version = resume point)

	// Pubsub baseline.
	KindGCDrop   // retention GC discarded unconsumed messages (N = messages)
	KindDLQRoute // message dead-lettered to a DLQ topic
	KindNackDrop // message dropped after max nacks with no DLQ configured

	// Auto-sharder.
	KindRangeMove // key range reassigned to another pod

	// Memory governor.
	KindMemoryPressure // pressure level changed, or a watcher was shed+quarantined (N = used bytes / strikes)

	// Admission control, hub or client side.
	KindWatchRefused // watch refused under overload (Detail = cause; client: ID = watch id, N = backoff ms)
)

var kindNames = [...]string{
	KindUnknown:          "unknown",
	KindWatcherAdd:       "watcher-add",
	KindWatcherRemove:    "watcher-remove",
	KindWatcherLagOut:    "watcher-lag-out",
	KindHubWipe:          "hub-wipe",
	KindSegmentSeal:      "segment-seal",
	KindSegmentRetire:    "segment-retire",
	KindRemoteConnect:    "remote-connect",
	KindRemoteDisconnect: "remote-disconnect",
	KindRemoteOverflow:   "remote-overflow",
	KindRemoteDrain:      "remote-drain",
	KindHeartbeatMiss:    "heartbeat-miss",
	KindRemoteReconnect:  "remote-reconnect",
	KindRemoteResume:     "remote-resume",
	KindGCDrop:           "gc-drop",
	KindDLQRoute:         "dlq-route",
	KindNackDrop:         "nack-drop",
	KindRangeMove:        "range-move",
	KindMemoryPressure:   "memory-pressure",
	KindWatchRefused:     "watch-refused",
}

// rareKinds are the kinds kept in the recorder's own rare ring: the causes an
// autopsy needs, which a storm of watcher churn and segment seals would
// otherwise overwrite within microseconds.
var rareKinds = [len(kindNames)]bool{
	KindWatcherLagOut:    true,
	KindHubWipe:          true,
	KindRemoteConnect:    true,
	KindRemoteDisconnect: true,
	KindRemoteOverflow:   true,
	KindRemoteDrain:      true,
	KindHeartbeatMiss:    true,
	KindRemoteReconnect:  true,
	KindMemoryPressure:   true,
	KindGCDrop:           true,
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// MarshalText renders the kind as its name, so dumps read as timelines
// rather than enums.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name (the e2e tests decode dumps back).
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	*k = KindUnknown
	return nil
}

// Event is the caller-supplied payload of one record. All fields are
// optional; fill what the hook point knows.
type Event struct {
	// Comp names the component that recorded the event ("core.hub",
	// "remote.server", "remote.client", "pubsub.broker", "sharder").
	Comp string `json:"comp,omitempty"`
	// ID correlates records about one entity: watcher id, connection id,
	// client session generation — whatever identity the component tracks.
	ID int64 `json:"id,omitempty"`
	// Version is the event's position in version space, when it has one
	// (resume point, sealed segment's max version).
	Version uint64 `json:"version,omitempty"`
	// Trace carries a causal trace ID when the hook point has one in hand,
	// correlating the record with the sampled per-event traces in a dump.
	Trace trace.ID `json:"trace,omitempty"`
	// N is a magnitude: events evicted, watches resumed, messages dropped.
	N int64 `json:"n,omitempty"`
	// Detail is a short human-readable cause ("watcher buffer overflow",
	// "read tcp ...: connection reset").
	Detail string `json:"detail,omitempty"`
}

// Record is one flight-recorder entry: a typed Event plus its global
// sequence number and timestamp. Seq is a total order across every shard
// ring — merging shards by Seq reconstructs the system-wide timeline.
type Record struct {
	Seq  uint64 `json:"seq"`
	At   int64  `json:"at_ns"`
	Kind Kind   `json:"kind"`
	Event
}

// Config tunes a Recorder's footprint.
type Config struct {
	// Shards is the ring count; records are spread round-robin so concurrent
	// recorders rarely contend on one mutex. Default 4.
	Shards int
	// PerShard is each ring's capacity in records, the rare ring's
	// included. Total memory is (Shards+1)×PerShard×sizeof(Record), fixed
	// at construction. Default 512.
	PerShard int
	// Clock stamps records; nil uses the real clock.
	Clock clockwork.Clock
	// Metrics receives flightrec_records_total; nil uses metrics.Default().
	Metrics *metrics.Registry
}

// Recorder is the always-on recording layer: a fixed set of fixed-size
// record rings. All methods are nil-receiver-safe, so every subsystem holds
// a possibly-nil *Recorder and calls it unconditionally — the disabled
// configuration costs one branch per (already rare) lifecycle event.
type Recorder struct {
	clock  clockwork.Clock
	seq    atomic.Uint64
	shards []recShard
	// rare holds only rareKinds, so the cause of a storm outlives the
	// storm's own records in shards.
	rare     recShard
	recorded *metrics.Counter
}

// recShard is one ring. n counts total writes; the live window is the last
// min(n, len(buf)) records at positions [n-window, n) mod len(buf).
type recShard struct {
	mu  sync.Mutex
	buf []Record
	n   uint64
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.PerShard <= 0 {
		cfg.PerShard = 512
	}
	if cfg.Clock == nil {
		cfg.Clock = clockwork.Real()
	}
	r := &Recorder{
		clock:    cfg.Clock,
		shards:   make([]recShard, cfg.Shards),
		recorded: cfg.Metrics.Or().Counter("flightrec_records_total"),
	}
	for i := range r.shards {
		r.shards[i].buf = make([]Record, cfg.PerShard)
	}
	r.rare.buf = make([]Record, cfg.PerShard)
	return r
}

// Enabled reports whether records go anywhere.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one event to the flight recorder. Safe for concurrent use;
// a no-op on a nil receiver.
func (r *Recorder) Record(k Kind, e Event) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	at := r.clock.Now().UnixNano()
	s := &r.shards[seq%uint64(len(r.shards))]
	if int(k) < len(rareKinds) && rareKinds[k] {
		s = &r.rare
	}
	s.mu.Lock()
	s.buf[s.n%uint64(len(s.buf))] = Record{Seq: seq, At: at, Kind: k, Event: e}
	s.n++
	s.mu.Unlock()
	r.recorded.Inc()
}

// Tail returns up to n of the most recent records of the common kinds plus
// every rare record still held, ascending by sequence number — the merged
// timeline across every ring. n <= 0 returns the whole live window. The
// slice is a copy.
func (r *Recorder) Tail(n int) []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for i := range r.shards {
		out = r.shards[i].appendTo(out)
	}
	sortBySeq(out)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	out = r.rare.appendTo(out)
	sortBySeq(out)
	return out
}

func sortBySeq(rs []Record) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
}

// appendTo appends the ring's live window to out, oldest write first.
func (s *recShard) appendTo(out []Record) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := s.n - min(s.n, uint64(len(s.buf))); j < s.n; j++ {
		out = append(out, s.buf[j%uint64(len(s.buf))])
	}
	return out
}

// held returns how many records the ring holds.
func (s *recShard) held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(min(s.n, uint64(len(s.buf))))
}

// Len returns how many records are currently held across the rings.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	total := r.rare.held()
	for i := range r.shards {
		total += r.shards[i].held()
	}
	return total
}

// Recorded returns the total number of records ever written (including ones
// the rings have since overwritten).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}
