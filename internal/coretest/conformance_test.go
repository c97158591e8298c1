package coretest

import (
	"testing"

	"unbundle/internal/core"
	"unbundle/internal/ingeststore"
	"unbundle/internal/keyspace"
	"unbundle/internal/mvcc"
)

// TestConformance runs the Watchable conformance suite against all four
// Figure 3 quadrants.
func TestConformance(t *testing.T) {
	Run(t, "producer-store-builtin", func(cfg core.HubConfig) Env {
		ws := mvcc.NewWatchableStore(cfg)
		restarts := closers{ws.Close}
		return Env{
			Watch: ws,
			Put:   func(k keyspace.Key, v []byte) core.Version { return ws.Put(k, v) },
			KeyOf: func(ev core.ChangeEvent) keyspace.Key { return ev.Key },
			Restart: func() core.Watchable {
				hub := core.NewHub(cfg)
				restarts.add(ws.Store.AttachCDC(keyspace.Full(), hub), hub.Close)
				return hub
			},
			Close: restarts.close,
		}
	})

	Run(t, "producer-store-external-hub", func(cfg core.HubConfig) Env {
		st := mvcc.NewStore()
		st.SetTracer(cfg.Tracer)
		hub := core.NewHub(cfg)
		restarts := closers{st.AttachCDC(keyspace.Full(), hub), hub.Close}
		return Env{
			Watch: hub,
			Put:   func(k keyspace.Key, v []byte) core.Version { return st.Put(k, v) },
			KeyOf: func(ev core.ChangeEvent) keyspace.Key { return ev.Key },
			Restart: func() core.Watchable {
				hub := core.NewHub(cfg)
				restarts.add(st.AttachCDC(keyspace.Full(), hub), hub.Close)
				return hub
			},
			Close: restarts.close,
		}
	})

	Run(t, "ingest-store-builtin", func(cfg core.HubConfig) Env {
		ing := ingeststore.NewWatchable(ingeststore.Config{}, cfg)
		restarts := closers{ing.Close}
		return Env{
			Watch: ing,
			Put: func(k keyspace.Key, v []byte) core.Version {
				return ing.Append(k, v).Seq
			},
			KeyOf: seriesOf,
			Restart: func() core.Watchable {
				hub := core.NewHub(cfg)
				restarts.add(ing.Store.AttachIngester(hub), hub.Close)
				return hub
			},
			Close: restarts.close,
		}
	})

	Run(t, "ingest-store-external-hub", func(cfg core.HubConfig) Env {
		ing := ingeststore.NewStore(ingeststore.Config{Tracer: cfg.Tracer})
		hub := core.NewHub(cfg)
		restarts := closers{ing.AttachIngester(hub), hub.Close}
		return Env{
			Watch: hub,
			Put: func(k keyspace.Key, v []byte) core.Version {
				return ing.Append(k, v).Seq
			},
			KeyOf: seriesOf,
			Restart: func() core.Watchable {
				hub := core.NewHub(cfg)
				restarts.add(ing.AttachIngester(hub), hub.Close)
				return hub
			},
			Close: restarts.close,
		}
	})
}

// closers collects an Env's teardown steps: a factory's own, then each
// Restart's, run in reverse on close.
type closers []func()

func (c *closers) add(fns ...func()) { *c = append(*c, fns...) }

func (c *closers) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
}

// seriesOf maps "<series>#<seq>" event keys back to their series.
func seriesOf(ev core.ChangeEvent) keyspace.Key {
	s := string(ev.Key)
	for i := 0; i < len(s); i++ {
		if s[i] == '#' {
			return keyspace.Key(s[:i])
		}
	}
	return ev.Key
}
