// Package ingeststore implements the ingestion storage of the paper's §2/§4:
// an append-optimized, time-series-flavoured event store that isolates the
// main application database from ingest load, offers efficient access to
// recent events, and participates in the watch model through the
// core.Ingester/core.Watchable contracts (the right column of Figure 3).
//
// Events are immutable facts: each append materializes as a new key
// "<series>#<seq>" so that a key-range watch over a series prefix streams
// that series. Retention GC here is *not* the silent pubsub loss of §3.1:
// consumers that lag beyond retention receive an explicit resync and can
// re-read the store — the loss is visible and recoverable, by contract.
package ingeststore

import (
	"fmt"
	"sync"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/trace"
)

// Event is one ingested record.
type Event struct {
	Series  keyspace.Key // logical stream, e.g. "sensor/42" or "weblog/eu"
	Seq     core.Version // global monotonic sequence = transaction version
	Time    time.Time    // ingest time (drives retention)
	Payload []byte
}

// Key returns the storage key an event materializes under.
func (e Event) Key() keyspace.Key {
	return EventKey(e.Series, e.Seq)
}

// EventKey builds the storage key for (series, seq). Within one series, key
// order equals seq order.
func EventKey(series keyspace.Key, seq core.Version) keyspace.Key {
	return series + keyspace.Key(fmt.Sprintf("#%020d", uint64(seq)))
}

// SeriesRange returns the key range covering every event of a series.
func SeriesRange(series keyspace.Key) keyspace.Range {
	return keyspace.Prefix(series + "#")
}

// Config tunes the store.
type Config struct {
	// Clock stamps ingested events; defaults to the real clock.
	Clock clockwork.Clock
	// Retention bounds event age; 0 keeps events forever. Retention is
	// applied by RunGC (call it from a ticker, or directly in tests).
	Retention time.Duration
	// Tracer, when non-nil, samples ingested events at the source: the
	// append under the store lock is this store's StageCommit instant.
	Tracer *trace.Tracer
}

// Stats reports store counters.
type Stats struct {
	Appends      int64
	BytesWritten int64
	Retained     int
	GCDropped    int64
	Seq          core.Version
}

// Store is an ingestion store. Safe for concurrent use.
type Store struct {
	clock     clockwork.Clock
	retention time.Duration

	mu     sync.Mutex
	tracer *trace.Tracer
	events []Event // ascending Seq; GC drops a prefix
	seq    core.Version
	taps   []tapEntry
	nextID int
	one    [1]core.ChangeEvent // Append's feed batch, reused under mu

	appends   int64
	bytes     int64
	gcDropped int64
}

var _ core.Snapshotter = (*Store)(nil)

// NewStore creates an ingestion store.
func NewStore(cfg Config) *Store {
	if cfg.Clock == nil {
		cfg.Clock = clockwork.Real()
	}
	return &Store{clock: cfg.Clock, retention: cfg.Retention, tracer: cfg.Tracer}
}

// SetTracer installs (or removes, with nil) the tracer that samples this
// store's appends.
func (s *Store) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// Append ingests one event into a series and returns it (with its sequence
// number assigned). The change feed sees the event and a progress mark.
func (s *Store) Append(series keyspace.Key, payload []byte) Event {
	s.mu.Lock()
	s.seq++
	ev := Event{Series: series, Seq: s.seq, Time: s.clock.Now(), Payload: payload}
	s.events = append(s.events, ev)
	s.appends++
	s.bytes += int64(len(series) + len(payload))
	change := core.ChangeEvent{Key: ev.Key(), Mut: core.Mutation{Op: core.OpPut, Value: payload}, Version: ev.Seq}
	if s.tracer.Enabled() {
		change.Trace = s.tracer.Begin(change.Key, uint64(ev.Seq))
	}
	s.one[0] = change
	s.feedLocked(s.one[:])
	s.one[0] = core.ChangeEvent{}
	s.mu.Unlock()
	return ev
}

// AppendBatch ingests a batch of events into one series under a single lock
// acquisition, feeding the change feed one commit per tap instead of a call
// pair per event — the ingest-side analogue of the hub's batched ingest
// contract.
func (s *Store) AppendBatch(series keyspace.Key, payloads [][]byte) []Event {
	if len(payloads) == 0 {
		return nil
	}
	out := make([]Event, 0, len(payloads))
	changes := make([]core.ChangeEvent, 0, len(payloads))
	s.mu.Lock()
	now := s.clock.Now()
	for _, p := range payloads {
		s.seq++
		ev := Event{Series: series, Seq: s.seq, Time: now, Payload: p}
		s.events = append(s.events, ev)
		s.appends++
		s.bytes += int64(len(series) + len(p))
		out = append(out, ev)
		change := core.ChangeEvent{Key: ev.Key(), Mut: core.Mutation{Op: core.OpPut, Value: p}, Version: ev.Seq}
		if s.tracer.Enabled() {
			change.Trace = s.tracer.Begin(change.Key, uint64(ev.Seq))
		}
		changes = append(changes, change)
	}
	s.feedLocked(changes)
	s.mu.Unlock()
	return out
}

// feedLocked hands every tap one commit: changes, then a progress mark
// through the last assigned sequence number — in one call to a tap that
// takes commits. Caller holds s.mu.
func (s *Store) feedLocked(changes []core.ChangeEvent) {
	p := core.ProgressEvent{Range: keyspace.Full(), Version: s.seq}
	for _, t := range s.taps {
		if t.ci != nil {
			_ = t.ci.AppendCommit(changes, p)
			continue
		}
		_ = t.ing.AppendBatch(changes)
		_ = t.ing.Progress(p)
	}
}

// tapEntry identifies an attached ingester for detachment.
type tapEntry struct {
	id  int
	ing core.Ingester
	ci  core.CommitIngester // ing's commit path, nil when it has none
}

// AttachIngester feeds all future events (and progress) into ing, one
// AppendCommit per append when ing is a core.CommitIngester. An ing
// that implements core.FeedStart is told the last assigned sequence number
// first, under the lock that assigns them.
func (s *Store) AttachIngester(ing core.Ingester) (detach func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs, ok := ing.(core.FeedStart); ok {
		fs.FeedStartsAfter(s.seq)
	}
	id := s.nextID
	s.nextID++
	ci, _ := ing.(core.CommitIngester)
	s.taps = append(s.taps, tapEntry{id: id, ing: ing, ci: ci})
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, t := range s.taps {
			if t.id == id {
				s.taps = append(s.taps[:i], s.taps[i+1:]...)
				return
			}
		}
	}
}

// Query returns retained events whose storage key falls in r with
// Seq > after, oldest first, up to limit (0 = unlimited). This is the
// "query the ingestion store to obtain state" path of §4.3.
func (s *Store) Query(r keyspace.Range, after core.Version, limit int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, ev := range s.events {
		if ev.Seq <= after || !r.Contains(ev.Key()) {
			continue
		}
		out = append(out, ev)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// QuerySeries returns retained events of one series with Seq > after.
func (s *Store) QuerySeries(series keyspace.Key, after core.Version, limit int) []Event {
	return s.Query(SeriesRange(series), after, limit)
}

// SnapshotRange implements core.Snapshotter: every retained event in r, as
// immutable entries, at the current sequence number.
func (s *Store) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []core.Entry
	for _, ev := range s.events {
		k := ev.Key()
		if r.Contains(k) {
			out = append(out, core.Entry{Key: k, Value: ev.Payload, Version: ev.Seq})
		}
	}
	return out, s.seq, nil
}

// CurrentSeq returns the last assigned sequence number.
func (s *Store) CurrentSeq() core.Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// RunGC drops events older than the retention window. Returns the count
// dropped. Unlike pubsub retention GC this is contractually safe: any
// watcher needing dropped history gets a resync from its watch system, and
// the store remains the queryable source of truth for what is retained.
func (s *Store) RunGC() int64 {
	if s.retention <= 0 {
		return 0
	}
	cutoff := s.clock.Now().Add(-s.retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.events) && s.events[i].Time.Before(cutoff) {
		i++
	}
	if i == 0 {
		return 0
	}
	s.events = append([]Event(nil), s.events[i:]...)
	s.gcDropped += int64(i)
	return int64(i)
}

// StartGC runs RunGC on a background ticker until the returned stop
// function is called. It uses the store's clock, so fake-clock tests drive
// it by advancing time.
func (s *Store) StartGC(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	tick := s.clock.NewTicker(interval)
	go func() {
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C():
				s.RunGC()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Stats returns counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Appends:      s.appends,
		BytesWritten: s.bytes,
		Retained:     len(s.events),
		GCDropped:    s.gcDropped,
		Seq:          s.seq,
	}
}

// Watchable bundles an ingestion store with a built-in watch hub: Figure 3's
// bottom-right quadrant — the shape a "refined Kafka" would take, with the
// storage layer explicit and the watch contract standard.
type Watchable struct {
	*Store
	hub    *core.Hub
	detach func()
}

var (
	_ core.Watchable   = (*Watchable)(nil)
	_ core.Snapshotter = (*Watchable)(nil)
)

// NewWatchable creates an ingestion store with built-in watch. If only the
// hub config names a Tracer, the store adopts it, so one configuration knob
// traces the whole pipeline.
func NewWatchable(cfg Config, hubCfg core.HubConfig) *Watchable {
	if cfg.Tracer == nil && hubCfg.Tracer.Enabled() {
		cfg.Tracer = hubCfg.Tracer
	}
	s := NewStore(cfg)
	h := core.NewHub(hubCfg)
	detach := s.AttachIngester(h)
	return &Watchable{Store: s, hub: h, detach: detach}
}

// Watch implements core.Watchable.
func (w *Watchable) Watch(r keyspace.Range, from core.Version, cb core.WatchCallback) (core.Cancel, error) {
	return w.hub.Watch(r, from, cb)
}

// Hub exposes the built-in hub for stats and failure injection.
func (w *Watchable) Hub() *core.Hub { return w.hub }

// Close detaches and shuts the hub down.
func (w *Watchable) Close() {
	w.detach()
	w.hub.Close()
}
