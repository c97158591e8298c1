// Package unbundle is a from-scratch implementation of the storage-plus-
// watch architecture proposed in "Understanding the limitations of pubsub
// systems" (Adya, Bogle, Meek — HotOS 2025), together with the complete
// pubsub baseline the paper critiques.
//
// The public API re-exports the building blocks:
//
//   - the watch contract (§4.2): ChangeEvent, ProgressEvent, resync signals,
//     Watchable on the consumer side and Ingester on the store side;
//   - Hub, a standalone watch system holding only recoverable soft state;
//   - KnowledgeSet, the Figure 5 bookkeeping for snapshot-consistent serving;
//   - ResyncWatcher, the snapshot-then-watch recovery loop;
//   - Store, an MVCC producer store with monotonic commit versions, CDC and
//     filtered views; IngestStore, an append-optimized ingestion store;
//   - Broker, a Kafka-class pubsub broker (partitioned durable logs,
//     consumer groups, retention GC, compaction, DLQs) — the baseline;
//   - Sharder, a Slicer-style auto-sharder for dynamically sharded
//     consumers.
//
// Quick start (see examples/quickstart for the runnable version):
//
//	store := unbundle.NewWatchableStore(unbundle.HubConfig{})
//	defer store.Close()
//	store.Put("greeting", []byte("hello"))
//	entries, at, _ := store.SnapshotRange(unbundle.FullRange())
//	cancel, _ := store.Watch(unbundle.FullRange(), at, unbundle.Callbacks{
//	    Event: func(ev unbundle.ChangeEvent) { fmt.Println(ev.Key, ev.Version) },
//	})
//	defer cancel()
package unbundle

import (
	"unbundle/internal/core"
	"unbundle/internal/debugz"
	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/ingeststore"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/pubsub"
	"unbundle/internal/remote"
	"unbundle/internal/sharder"
	"unbundle/internal/trace"
)

// Key and range vocabulary (see internal/keyspace).
type (
	// Key is an ordered byte-string key.
	Key = keyspace.Key
	// Range is a half-open key interval [Low, High).
	Range = keyspace.Range
	// RangeSet is a normalized set of ranges.
	RangeSet = keyspace.RangeSet
)

// FullRange returns the range covering the whole keyspace.
func FullRange() Range { return keyspace.Full() }

// PrefixRange returns the range of keys with the given prefix.
func PrefixRange(p Key) Range { return keyspace.Prefix(p) }

// PointRange returns the range containing exactly k.
func PointRange(k Key) Range { return keyspace.Point(k) }

// NumericKey formats n as a fixed-width ordered key — the numeric-domain
// convention the Sharder's shard boundaries are aligned to.
func NumericKey(n int) Key { return keyspace.NumericKey(n) }

// NumericRange returns the range [NumericKey(lo), NumericKey(hi)).
func NumericRange(lo, hi int) Range { return keyspace.NumericRange(lo, hi) }

// The watch contract (§4.2 of the paper; see internal/core).
type (
	// Version is a monotonic transaction version from the source of truth.
	Version = core.Version
	// ChangeEvent reports a key change at a version.
	ChangeEvent = core.ChangeEvent
	// ProgressEvent reports range-scoped completeness up to a version.
	ProgressEvent = core.ProgressEvent
	// ResyncEvent tells a watcher to recover from the store.
	ResyncEvent = core.ResyncEvent
	// Mutation is a put or delete payload.
	Mutation = core.Mutation
	// WatchCallback receives a watch stream.
	WatchCallback = core.WatchCallback
	// Callbacks adapts plain functions to WatchCallback.
	Callbacks = core.Funcs
	// Cancel stops a watch.
	Cancel = core.Cancel
	// Watchable is the consumer-side contract.
	Watchable = core.Watchable
	// Ingester is the store-side contract.
	Ingester = core.Ingester
	// Snapshotter is the narrow store read view used for recovery.
	Snapshotter = core.Snapshotter
	// Entry is one key's state in a snapshot.
	Entry = core.Entry
	// Hub is a standalone watch system (soft state only).
	Hub = core.Hub
	// HubConfig tunes a Hub.
	HubConfig = core.HubConfig
	// KnowledgeSet tracks Figure 5 knowledge regions.
	KnowledgeSet = core.KnowledgeSet
	// KnowledgeRegion is one range × version-window region.
	KnowledgeRegion = core.KnowledgeRegion
	// ResyncWatcher runs the snapshot-then-watch recovery loop.
	ResyncWatcher = core.ResyncWatcher
	// SyncedConsumer is what a ResyncWatcher drives.
	SyncedConsumer = core.SyncedConsumer
	// VersionMap is an interval map from ranges to versions (frontiers).
	VersionMap = core.VersionMap
)

// Mutation op codes.
const (
	OpPut    = core.OpPut
	OpDelete = core.OpDelete
)

// NoVersion precedes every committed version.
const NoVersion = core.NoVersion

// NewHub creates a standalone watch system.
func NewHub(cfg HubConfig) *Hub { return core.NewHub(cfg) }

// NewKnowledgeSet creates empty Figure 5 bookkeeping.
func NewKnowledgeSet() *KnowledgeSet { return core.NewKnowledgeSet() }

// NewResyncWatcher composes a store view and a watch system into a
// self-recovering consumer over r.
func NewResyncWatcher(store Snapshotter, src Watchable, r Range, consumer SyncedConsumer) *ResyncWatcher {
	return core.NewResyncWatcher(store, src, r, consumer)
}

// Producer storage (see internal/mvcc).
type (
	// Store is an MVCC key-value store with serializable transactions,
	// snapshot reads and a CDC tap.
	Store = mvcc.Store
	// Tx is an open transaction.
	Tx = mvcc.Tx
	// View is a filtered, read-only window over a Store (§4.1).
	View = mvcc.View
	// WatchableStore bundles a Store with a built-in watch hub.
	WatchableStore = mvcc.WatchableStore
)

// NewStore creates an empty MVCC store.
func NewStore() *Store { return mvcc.NewStore() }

// NewView creates a filtered read-only view of a store.
func NewView(store *Store, r Range, transform func(Entry) (Entry, bool)) *View {
	return mvcc.NewView(store, r, transform)
}

// NewWatchableStore creates a store with built-in watch (the Figure 3
// "producer storage with built-in watch" quadrant).
func NewWatchableStore(cfg HubConfig) *WatchableStore {
	return mvcc.NewWatchableStore(cfg)
}

// Ingestion storage (see internal/ingeststore).
type (
	// IngestStore is an append-optimized event store.
	IngestStore = ingeststore.Store
	// IngestEvent is one ingested record.
	IngestEvent = ingeststore.Event
	// IngestConfig tunes an ingestion store.
	IngestConfig = ingeststore.Config
	// WatchableIngestStore bundles an ingestion store with built-in watch.
	WatchableIngestStore = ingeststore.Watchable
)

// NewIngestStore creates an ingestion store.
func NewIngestStore(cfg IngestConfig) *IngestStore { return ingeststore.NewStore(cfg) }

// NewWatchableIngestStore creates an ingestion store with built-in watch.
func NewWatchableIngestStore(cfg IngestConfig, hubCfg HubConfig) *WatchableIngestStore {
	return ingeststore.NewWatchable(cfg, hubCfg)
}

// SeriesRange returns the key range covering one ingestion series.
func SeriesRange(series Key) Range { return ingeststore.SeriesRange(series) }

// The pubsub baseline (see internal/pubsub).
type (
	// Broker is an in-process pubsub broker.
	Broker = pubsub.Broker
	// BrokerConfig tunes a broker.
	BrokerConfig = pubsub.BrokerConfig
	// TopicConfig configures a topic.
	TopicConfig = pubsub.TopicConfig
	// GroupConfig configures a consumer group.
	GroupConfig = pubsub.GroupConfig
	// Group is a consumer group.
	Group = pubsub.Group
	// Consumer is a group member.
	Consumer = pubsub.Consumer
	// FreeConsumer reads a whole partition without coordination.
	FreeConsumer = pubsub.FreeConsumer
	// Message is a delivered message.
	Message = pubsub.Message
)

// NewBroker starts a pubsub broker.
func NewBroker(cfg BrokerConfig) *Broker { return pubsub.NewBroker(cfg) }

// Auto-sharding (see internal/sharder).
type (
	// Sharder assigns key ranges to pods dynamically.
	Sharder = sharder.Sharder
	// SharderConfig tunes a sharder.
	SharderConfig = sharder.Config
	// Pod identifies a serving process.
	Pod = sharder.Pod
	// Assignment maps one range to its owner.
	Assignment = sharder.Assignment
	// AssignmentTable is a complete assignment snapshot.
	AssignmentTable = sharder.Table
)

// NewSharder creates an auto-sharder over the given pods.
func NewSharder(cfg SharderConfig, pods ...Pod) *Sharder {
	return sharder.New(cfg, pods...)
}

// §5 extension: the remote watch protocol.
type (
	// WatchServer exposes a Watchable + Snapshotter on a TCP listener.
	WatchServer = remote.Server
	// WatchClient implements Watchable + Snapshotter against a WatchServer.
	WatchClient = remote.Client
	// WatchServerConfig wires metrics and tracing into a WatchServer.
	WatchServerConfig = remote.ServerConfig
	// WatchClientConfig wires metrics and tracing into a WatchClient.
	WatchClientConfig = remote.ClientConfig
	// ReconnectPolicy enables client auto-reconnect with backoff
	// (WatchClientConfig.Reconnect); watches resume from the last delivered
	// version, falling back to an explicit resync when retention can't cover
	// the gap.
	ReconnectPolicy = remote.ReconnectPolicy
	// WatchConnInfo describes one live server connection (WatchServer.Conns,
	// the debug server's /conns endpoint).
	WatchConnInfo = remote.ConnInfo
)

// ServeWatch exposes a watch system and its recovery snapshot view on addr
// (e.g. "127.0.0.1:0").
func ServeWatch(addr string, w Watchable, s Snapshotter) (*WatchServer, error) {
	return remote.Serve(addr, w, s)
}

// DialWatch connects to a ServeWatch endpoint; the returned client is a
// Watchable and a Snapshotter, so consumer stacks run against it unchanged.
func DialWatch(addr string) (*WatchClient, error) {
	return remote.Dial(addr)
}

// ServeWatchWith is ServeWatch with a metrics registry and tracer attached:
// the server records remote_server_* counters and stamps the remote-enqueue
// trace stage as batches enter a connection's outbox.
func ServeWatchWith(addr string, w Watchable, s Snapshotter, cfg WatchServerConfig) (*WatchServer, error) {
	return remote.ServeWith(addr, w, s, cfg)
}

// DialWatchWith is DialWatch with a metrics registry and tracer attached:
// the client records remote_client_* counters and stamps the remote-deliver
// trace stage as events reach the local callback.
func DialWatchWith(addr string, cfg WatchClientConfig) (*WatchClient, error) {
	return remote.DialWith(addr, cfg)
}

// Sentinel errors from the remote watch transport, for errors.Is against the
// terminal-resync reasons and Watch/SnapshotRange failures.
var (
	// ErrWatchClientClosed: the client was closed locally.
	ErrWatchClientClosed = remote.ErrClientClosed
	// ErrWatchServerDraining: the server announced a graceful shutdown.
	ErrWatchServerDraining = remote.ErrServerDraining
	// ErrWatchReconnectBudget: auto-reconnect exhausted its retry budget.
	ErrWatchReconnectBudget = remote.ErrReconnectBudget
)

// Observability (see internal/metrics): every subsystem records named
// counters, gauges and histograms into a registry — either one passed via
// its config's Metrics field, or the shared process-wide default.
type (
	// MetricsRegistry collects named counters, gauges and histograms.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's instruments.
	MetricsSnapshot = metrics.RegistrySnapshot
)

// NewMetricsRegistry returns an empty registry to pass into HubConfig,
// BrokerConfig, WatchConfig or PubSubConfig for isolated measurement.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// DefaultMetrics returns the process-wide registry that subsystems fall
// back to when their config leaves Metrics nil. Dump it with WriteTo.
func DefaultMetrics() *MetricsRegistry { return metrics.Default() }

// Causal tracing (see internal/trace): a Tracer samples 1-in-N source
// events and records per-stage timestamps (commit → append → enqueue →
// deliver) as they flow through the pipeline. Wire one Tracer into the
// store (Store.SetTracer, IngestConfig.Tracer, BrokerConfig.Tracer) and the
// watch system (HubConfig.Tracer) to trace end to end.
type (
	// Tracer samples events and collects per-stage timestamps.
	Tracer = trace.Tracer
	// TraceConfig tunes a Tracer (sampling rate, ring sizes, clock).
	TraceConfig = trace.Config
	// EventTrace is one completed trace: stage timestamps for one event.
	EventTrace = trace.Trace
	// WatcherLag is one watcher's staleness snapshot from Hub.WatcherLags:
	// version lag and time behind the ingest frontier.
	WatcherLag = core.WatcherLag
)

// NewTracer creates a Tracer; SampleEvery <= 0 yields a disabled tracer
// that costs one branch per pipeline stage.
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// TraceStage identifies one pipeline stage in an EventTrace.
type TraceStage = trace.Stage

// Final stages for TraceConfig.FinalStage: local consumers complete at
// deliver (the default); consumers behind a WatchClient complete at
// remote-deliver, so traces span commit → client callback.
const (
	TraceStageDeliver       = trace.StageDeliver
	TraceStageRemoteDeliver = trace.StageRemoteDeliver
)

// The operational debug server (see internal/debugz): /metrics, /watchers
// (lag radar), /traces, /regions, and /debug/pprof.
type (
	// DebugConfig names the data sources behind the debug endpoints.
	DebugConfig = debugz.Config
	// DebugServer is a running debug HTTP server.
	DebugServer = debugz.Server
)

// ServeDebug starts the debug server on addr (e.g. "127.0.0.1:6060" or
// ":0"); every Config field is optional.
func ServeDebug(addr string, cfg DebugConfig) (*DebugServer, error) {
	return debugz.Serve(addr, cfg)
}

// Flight recorder + black-box dumps (see internal/flightrec): an always-on,
// fixed-memory ring of the stack's rare lifecycle events (lag-outs, segment
// seals, disconnects, GC drops, range moves), anomaly detectors polling the
// metrics registry against EWMA baselines, and a capturer that freezes a
// self-contained dump — timeline, traces, metrics delta, lag radar — the
// instant a detector fires. Wire a FlightRecorder into HubConfig,
// WatchServerConfig, WatchClientConfig, BrokerConfig and SharderConfig via
// their Recorder fields, or use NewFlightStack for the standard wiring.
type (
	// FlightRecorder is the always-on event ring; nil is a valid disabled
	// recorder (one branch per record).
	FlightRecorder = flightrec.Recorder
	// FlightRecorderConfig tunes ring sizing and the clock.
	FlightRecorderConfig = flightrec.Config
	// FlightRecord is one recorded event with its sequence and timestamp.
	FlightRecord = flightrec.Record
	// FlightEvent is the typed payload of a FlightRecord.
	FlightEvent = flightrec.Event
	// FlightKind classifies a FlightRecord.
	FlightKind = flightrec.Kind
	// FlightMonitor periodically evaluates anomaly detectors.
	FlightMonitor = flightrec.Monitor
	// FlightCapturer assembles and retains black-box dumps.
	FlightCapturer = flightrec.Capturer
	// FlightDump is one captured black box.
	FlightDump = flightrec.Dump
	// FlightStack bundles recorder, monitor and capturer.
	FlightStack = flightrec.Stack
	// FlightStackConfig configures NewFlightStack.
	FlightStackConfig = flightrec.StackConfig
)

// NewFlightRecorder creates an always-on flight recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder { return flightrec.New(cfg) }

// NewFlightStack wires recorder → standard detectors → capturer; call
// Mon.Start to begin anomaly detection.
func NewFlightStack(cfg FlightStackConfig) *FlightStack { return flightrec.NewStack(cfg) }

// Overload protection (see internal/govern): a process-wide memory governor
// with hierarchical budget accounts. Wire one Governor into HubConfig,
// WatchServerConfig and BrokerConfig via their Governor fields; the stack
// then degrades in contract order under memory pressure — accelerate segment
// eviction, shed the worst-backlogged watchers onto the resync path, and
// finally admission-control new watches and snapshots with a typed
// retry-after error (ErrOverloaded via errors.Is, *Overloaded via errors.As).
type (
	// Governor is the process-wide memory governor.
	Governor = govern.Governor
	// GovernorConfig tunes a Governor (budget, pressure thresholds,
	// quarantine policy).
	GovernorConfig = govern.Config
	// GovernorStats is a point-in-time governor snapshot (debugz /govern).
	GovernorStats = govern.Stats
	// GovernorAccount is one named budget account (Hub retention, watcher
	// rings, remote outbox, pubsub logs).
	GovernorAccount = govern.Account
	// Overloaded is the typed admission refusal carrying a RetryAfter hint.
	Overloaded = govern.Overloaded
)

// ErrOverloaded matches (via errors.Is) any admission refusal issued by a
// Governor, locally or over the remote watch protocol.
var ErrOverloaded = govern.ErrOverloaded

// NewGovernor creates a memory governor with the given budget and starts its
// relief goroutine; Close stops it.
func NewGovernor(cfg GovernorConfig) *Governor { return govern.NewGovernor(cfg) }
