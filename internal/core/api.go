// Package core implements the paper's primary contribution: the unbundled
// storage-plus-watch model of §4.
//
// It defines the watch contract exactly as §4.2 presents it — ChangeEvent,
// ProgressEvent and resync signals on the consumer side (Watchable), and the
// Ingester interface on the store side — plus the two engines that make the
// contract useful:
//
//   - Hub: a standalone watch system (the paper's "Snappy" sketch). It holds
//     only soft state: a bounded retention window of change events and a
//     range-scoped progress frontier. Consumers whose requested version has
//     been evicted, or who lag too far, receive an explicit resync signal and
//     recover from the authoritative store — the end-to-end behaviour pubsub
//     cannot offer (§3.1).
//
//   - KnowledgeSet: the Figure 5 bookkeeping. A watcher tracks, per key
//     range, the version window over which it has complete knowledge, and can
//     therefore serve snapshot-consistent reads and stitch consistent
//     snapshots across ranges (§4.3).
//
// Everything here is deliberately store-agnostic: any system that can emit
// per-key version-ordered change events and range-scoped progress (an MVCC
// database CDC feed, an ingestion store, even a refined pubsub log — the
// Figure 3 quadrants) can sit below the Hub via Ingester.
package core

import (
	"fmt"

	"unbundle/internal/keyspace"
	"unbundle/internal/trace"
)

// Version is a monotonic transaction version assigned by the source of
// truth — the paper's simplifying assumption (§4.2): TrueTime commit
// timestamps in Spanner, TSO timestamps in TiDB, gtid in MySQL. Version 0
// (NoVersion) precedes every committed version.
type Version uint64

// NoVersion is the version before any committed transaction. Watching from
// NoVersion means "everything from the beginning of retained history".
const NoVersion Version = 0

// String renders the version for logs.
func (v Version) String() string { return fmt.Sprintf("v%d", uint64(v)) }

// Op distinguishes the two mutation kinds.
type Op uint8

const (
	// OpPut writes a value for a key.
	OpPut Op = iota + 1
	// OpDelete removes a key. Delete events are first-class (they are what
	// makes tombstone hacks unnecessary in the watch model).
	OpDelete
)

// String returns the op name.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mutation is the payload of a change event: what happened to the key.
type Mutation struct {
	Op    Op
	Value []byte // nil for OpDelete
}

// ChangeEvent reports that a key changed at a transaction version — the
// paper's `ChangeEvent { Key key; Mutation mutation; Version version; }`.
// Events for a single key are always delivered in version order; no cross-key
// order is promised (the store is the authority on ordering; consumers that
// need cross-key consistency use progress events, not event order).
type ChangeEvent struct {
	Key     keyspace.Key
	Mut     Mutation
	Version Version
	// Trace carries the event's sampled trace ID through every pipeline
	// stage; 0 (the overwhelmingly common case) means the event is untraced
	// and costs each stage exactly one branch. Stamped by the source store
	// when a trace.Tracer is configured there.
	Trace trace.ID
}

// ProgressEvent states that all change events affecting keys in Range up to
// and including Version have been supplied — the paper's
// `ProgressEvent { Key low; Key high; Version version; }`. Progress is
// range-scoped rather than global or partition-bound, which is what lets
// every layer define and evolve its own partition boundaries independently
// (§4.2.2).
type ProgressEvent struct {
	Range   keyspace.Range
	Version Version
}

// ResyncEvent tells a watcher that the version it knows is no longer
// retained, or that it lagged beyond the watch system's buffering. The
// watcher must read a recent snapshot of the watched range from the store
// (any replica — a stale snapshot is fine) and re-watch from the snapshot
// version. This signal is the heart of the paper's backlog argument: loss is
// impossible to hide because recovery is part of the contract.
type ResyncEvent struct {
	// Range is the watched range that needs resynchronization.
	Range keyspace.Range
	// MinVersion is the earliest version for which the watch system can still
	// supply a complete event stream; the recovery snapshot must be at or
	// after it.
	MinVersion Version
	// Reason is a human-readable explanation (eviction, overflow, wipe).
	Reason string
}

// WatchCallback receives the watch stream. Callbacks for one watch are
// invoked sequentially from a single goroutine; implementations may therefore
// keep unsynchronized per-watch state. Callbacks must not block indefinitely:
// a slow consumer is lagged out with a resync, never allowed to wedge the
// watch system (unbounded backlogs are exactly the pubsub failure mode the
// design removes).
type WatchCallback interface {
	OnEvent(ChangeEvent)
	OnProgress(ProgressEvent)
	OnResync(ResyncEvent)
}

// EventBatchCallback is an optional extension of WatchCallback. A callback
// that also implements it receives each dispatch's change events as one
// OnEventBatch call instead of one OnEvent call per event — the batch
// hand-off that lets a transport (the remote server's connection outbox)
// move a whole dispatch's worth of events in one synchronized step.
// Semantics are otherwise identical to per-event delivery: per-key version
// order holds within and across batches, and a progress announcement
// follows every event it covers. The callee must not retain or mutate evs
// (or the slice's backing array) after returning: a live batch is either
// the dispatcher's reused array or a view of retained segments — a watch
// covering the whole keyspace reads the hub's log in place — and a
// catch-up replay's is a view of sealed retention history; segment views
// are shared read-only with every other watcher reading them. The event
// *values* (including Mutation.Value bytes) may be retained as usual.
type EventBatchCallback interface {
	OnEventBatch(evs []ChangeEvent)
}

// Funcs adapts plain functions to WatchCallback; nil fields are no-ops.
type Funcs struct {
	Event    func(ChangeEvent)
	Progress func(ProgressEvent)
	Resync   func(ResyncEvent)
}

// OnEvent implements WatchCallback.
func (f Funcs) OnEvent(ev ChangeEvent) {
	if f.Event != nil {
		f.Event(ev)
	}
}

// OnProgress implements WatchCallback.
func (f Funcs) OnProgress(p ProgressEvent) {
	if f.Progress != nil {
		f.Progress(p)
	}
}

// OnResync implements WatchCallback.
func (f Funcs) OnResync(r ResyncEvent) {
	if f.Resync != nil {
		f.Resync(r)
	}
}

// Cancel stops a watch. It is idempotent and safe to call from any
// goroutine; after it returns no further callbacks are delivered.
type Cancel func()

// Watchable is the consumer-facing contract (§4.2.1): request change state
// for a key range starting after a transaction version.
//
// Semantics: the stream contains every change event with version > from for
// keys in r, in per-key version order, unless a resync intervenes. Watching
// from a version older than retained history yields an immediate resync, not
// silent truncation. Catch-up replay of retained history is not performed
// inside the Watch call: Watch pins the covering history and returns, and
// the replay streams to cb on the watch's own delivery goroutine, ahead of
// any live events.
type Watchable interface {
	Watch(r keyspace.Range, from Version, cb WatchCallback) (Cancel, error)
}

// Ingester is the store-facing contract (§4.2.2): the store (or a CDC feed
// reading it) pushes change events and range-scoped progress into the watch
// system. The watch system keeps only soft state — deleting it loses no data
// and no consistency, only freshness, because consumers recover via resync.
type Ingester interface {
	// Append supplies one change event. Events for a given key must be
	// appended in non-decreasing version order.
	Append(ev ChangeEvent) error
	// AppendBatch supplies a batch of change events in one call — typically
	// everything one store commit produced — letting the watch system
	// amortize per-call synchronization. The batch must respect the same
	// per-key version ordering as a sequence of Appends, and the callee must
	// not retain evs after returning (the caller keeps ownership).
	AppendBatch(evs []ChangeEvent) error
	// Progress declares that every change below and at the given version for
	// the given range has been appended.
	Progress(p ProgressEvent) error
}

// FeedStart is an optional Ingester capability. A source attaching an
// ingester to its change feed calls FeedStartsAfter with its current
// version, under the lock that orders its commits: the ingester will receive
// every change after v and none at or before it. An ingester that serves
// history — the Hub — records v as the start of what it can replay, so a
// watch from before v resyncs instead of receiving a stream with a silent
// gap where the source's earlier history was.
type FeedStart interface {
	FeedStartsAfter(v Version)
}

// CommitIngester is an optional Ingester capability: AppendCommit ingests
// one commit — its change events, then its progress claim — with the effect
// of AppendBatch(evs) followed by Progress(p), in one call. A source whose
// ingester offers it makes one entry into the watch system per commit; an
// ingester without it gets the two calls.
type CommitIngester interface {
	AppendCommit(evs []ChangeEvent, p ProgressEvent) error
}

// Entry is one key's state in a snapshot read, used during resync.
type Entry struct {
	Key     keyspace.Key
	Value   []byte
	Version Version // version at which this value was written
}

// Snapshotter is the narrow read-only store view a watcher needs for
// recovery (§4.1): a consistent (possibly stale) snapshot of a range,
// together with the version it reflects. Producers expose a filtered view;
// consumers never see producer-store internals beyond it.
type Snapshotter interface {
	SnapshotRange(r keyspace.Range) (entries []Entry, at Version, err error)
}

// SnapshotCursor streams one range snapshot a chunk at a time, every chunk at
// the same version. A cursor holds no lock and no pin between calls, so it
// needs no Close: abandoning one mid-stream costs nothing.
type SnapshotCursor interface {
	// Next fills buf (from index 0, at most cap(buf) entries, which must be
	// at least 1) with the next entries in key order and returns the filled
	// prefix; done reports that the snapshot is complete, and may come with
	// an empty last chunk. The first call pins the snapshot version, so the
	// version and the first chunk come from one consistent read. Entry values
	// may alias the source's immutable storage; the Entry structs themselves
	// are the caller's. An error ends the stream: what was returned so far is
	// a prefix, not a snapshot.
	Next(buf []Entry) (entries []Entry, done bool, err error)
	// At is the version the snapshot reflects, and Bound an upper bound on
	// its entry count (0 = unknown) that is only good for sizing buffers.
	// Both are fixed by the first successful Next.
	At() Version
	Bound() int
}

// CursorSnapshotter is an optional capability beside Snapshotter: a source
// that can serve a snapshot without materialising it. A transport holds
// O(chunk) memory and the source is locked only inside Next.
type CursorSnapshotter interface {
	Snapshotter
	SnapshotCursor(r keyspace.Range) SnapshotCursor
}

// OpenSnapshot returns a cursor over s's snapshot of r: the source's own when
// it has the capability, else one that reads SnapshotRange on the first Next
// and hands the slice out chunk by chunk.
func OpenSnapshot(s Snapshotter, r keyspace.Range) SnapshotCursor {
	if cs, ok := s.(CursorSnapshotter); ok {
		return cs.SnapshotCursor(r)
	}
	return &sliceCursor{src: s, rng: r}
}

type sliceCursor struct {
	src     Snapshotter
	rng     keyspace.Range
	entries []Entry // unread remainder, once read is set
	read    bool
	at      Version
	bound   int
}

func (c *sliceCursor) Next(buf []Entry) ([]Entry, bool, error) {
	if !c.read {
		entries, at, err := c.src.SnapshotRange(c.rng)
		if err != nil {
			return nil, false, err
		}
		c.entries, c.at, c.bound, c.read = entries, at, len(entries), true
	}
	buf = buf[:min(cap(buf), len(c.entries))]
	c.entries = c.entries[copy(buf, c.entries):]
	return buf, len(c.entries) == 0, nil
}

func (c *sliceCursor) At() Version { return c.at }
func (c *sliceCursor) Bound() int  { return c.bound }
