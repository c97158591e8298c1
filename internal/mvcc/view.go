package mvcc

import (
	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// View is the §4.1 mechanism for hiding producer-store internals: a narrow,
// read-only window over a store, restricted to a key range, with an optional
// per-entry transform that exposes only derived values (e.g. projecting a
// contacts table down to the columns consumers may see).
//
// A View implements core.Snapshotter, so resyncing watchers can recover from
// it without ever touching the store's full keyspace — the consumed data
// lives in the producer's storage, not in a pubsub system's hidden storage,
// but consumers still see only what the producer chose to publish.
type View struct {
	store     *Store
	rng       keyspace.Range
	transform func(core.Entry) (core.Entry, bool)
}

var _ core.Snapshotter = (*View)(nil)

// NewView creates a read-only view of store restricted to r. transform, if
// non-nil, rewrites each entry (returning false drops the entry from the
// view entirely).
func NewView(store *Store, r keyspace.Range, transform func(core.Entry) (core.Entry, bool)) *View {
	return &View{store: store, rng: r, transform: transform}
}

// Range returns the view's key range.
func (v *View) Range() keyspace.Range { return v.rng }

// SnapshotRange implements core.Snapshotter over the view: the requested
// range is clipped to the view and every entry passes the transform.
func (v *View) SnapshotRange(r keyspace.Range) ([]core.Entry, core.Version, error) {
	clipped := r.Intersect(v.rng)
	if clipped.Empty() {
		return nil, v.store.CurrentVersion(), nil
	}
	entries, at, err := v.store.SnapshotRange(clipped)
	if err != nil {
		return nil, 0, err
	}
	if v.transform == nil {
		return entries, at, nil
	}
	out := entries[:0]
	for _, e := range entries {
		if t, keep := v.transform(e); keep {
			out = append(out, t)
		}
	}
	return out, at, nil
}

// AttachCDC feeds the view's change stream (clipped and transformed) into an
// ingester. Dropped entries become delete events so consumers converge to
// the view, not the raw table.
func (v *View) AttachCDC(ing core.Ingester) (detach func()) {
	if v.transform == nil {
		return v.store.AttachCDC(v.rng, ing)
	}
	return v.store.AttachCDC(v.rng, transformIngester{ing: ing, view: v})
}

// transformIngester rewrites CDC events through the view's transform.
type transformIngester struct {
	ing  core.Ingester
	view *View
}

func (t transformIngester) Append(ev core.ChangeEvent) error {
	return t.ing.Append(t.rewriteOne(ev))
}

func (t transformIngester) AppendBatch(evs []core.ChangeEvent) error {
	return t.ing.AppendBatch(t.rewrite(evs))
}

// AppendCommit passes the rewritten commit on whole to an ingester that
// takes commits, and as a batch plus its progress claim otherwise.
func (t transformIngester) AppendCommit(evs []core.ChangeEvent, p core.ProgressEvent) error {
	out := t.rewrite(evs)
	if ci, ok := t.ing.(core.CommitIngester); ok {
		return ci.AppendCommit(out, p)
	}
	if err := t.ing.AppendBatch(out); err != nil {
		return err
	}
	return t.ing.Progress(p)
}

// rewrite transforms evs into a fresh slice (the batch is rewritten, and the
// downstream ingester must not see the caller's backing array mutated).
func (t transformIngester) rewrite(evs []core.ChangeEvent) []core.ChangeEvent {
	out := make([]core.ChangeEvent, 0, len(evs))
	for _, ev := range evs {
		out = append(out, t.rewriteOne(ev))
	}
	return out
}

// rewriteOne passes ev through the view's transform.
func (t transformIngester) rewriteOne(ev core.ChangeEvent) core.ChangeEvent {
	if ev.Mut.Op != core.OpPut {
		return ev
	}
	e, keep := t.view.transform(core.Entry{Key: ev.Key, Value: ev.Mut.Value, Version: ev.Version})
	if !keep {
		// The view hides this entry: consumers must see it disappear.
		return core.ChangeEvent{Key: ev.Key, Mut: core.Mutation{Op: core.OpDelete}, Version: ev.Version, Trace: ev.Trace}
	}
	return core.ChangeEvent{Key: e.Key, Mut: core.Mutation{Op: core.OpPut, Value: e.Value}, Version: ev.Version, Trace: ev.Trace}
}

func (t transformIngester) Progress(p core.ProgressEvent) error {
	return t.ing.Progress(p)
}

// FeedStartsAfter passes the feed's start on to an ingester that wants it.
func (t transformIngester) FeedStartsAfter(v core.Version) {
	if fs, ok := t.ing.(core.FeedStart); ok {
		fs.FeedStartsAfter(v)
	}
}

// WatchableStore bundles a Store with a built-in watch hub: the Figure 3
// "producer storage with built-in watch" quadrant (Spanner change streams,
// the Kubernetes API server over etcd). It implements both core.Watchable
// and core.Snapshotter, so consumers use one object for the whole
// snapshot-then-watch protocol.
type WatchableStore struct {
	*Store
	hub    *core.Hub
	detach func()
}

var (
	_ core.Watchable   = (*WatchableStore)(nil)
	_ core.Snapshotter = (*WatchableStore)(nil)
)

// NewWatchableStore creates a store with built-in watch support. A
// cfg.Tracer is installed at the store too, so sampled commits trace end to
// end without further wiring.
func NewWatchableStore(cfg core.HubConfig) *WatchableStore {
	s := NewStore()
	if cfg.Tracer.Enabled() {
		s.SetTracer(cfg.Tracer)
	}
	h := core.NewHub(cfg)
	detach := s.AttachCDC(keyspace.Full(), h)
	return &WatchableStore{Store: s, hub: h, detach: detach}
}

// Watch implements core.Watchable.
func (ws *WatchableStore) Watch(r keyspace.Range, from core.Version, cb core.WatchCallback) (core.Cancel, error) {
	return ws.hub.Watch(r, from, cb)
}

// Hub exposes the built-in watch hub (for stats and failure injection).
func (ws *WatchableStore) Hub() *core.Hub { return ws.hub }

// Close detaches the CDC tap and shuts the hub down.
func (ws *WatchableStore) Close() {
	ws.detach()
	ws.hub.Close()
}
