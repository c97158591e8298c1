package experiments

import (
	"fmt"
	"sync"

	"unbundle/internal/core"
	"unbundle/internal/ingeststore"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E11",
		Title:  "The Figure 3 design space: four storage×notification wirings behind one contract",
		Anchor: "Figure 3, §4",
		Run:    runE11,
	})
}

// runE11 runs the same keyed workload through all four quadrants of
// Figure 3 — producer storage vs ingestion storage, built-in watch vs an
// external watch system — and verifies they are observationally equivalent
// behind the core.Watchable contract: same per-key event sequences, frontier
// reaching the source version. This is the unbundling thesis in code: the
// watch contract does not care where the storage lives.
func runE11(opts Options) (*Result, error) {
	e, _ := Get("E11")
	return run(e, opts, func(res *Result) error {
		nKeys := opts.pick(50, 400)
		updates := opts.pick(1000, 10000)

		type quadrant struct {
			name    string
			watch   core.Watchable
			drive   func(k keyspace.Key, v []byte)
			version func() core.Version
			keyOf   func(ev core.ChangeEvent) keyspace.Key
			cleanup func()
		}
		var quads []quadrant

		// Watcher queues hold every event, so no quadrant lags out.
		hubCfg := core.HubConfig{Retention: updates + 1, WatcherBuffer: 4 * updates}

		// Q1: producer storage, built-in watch (Spanner change streams,
		// Kubernetes API server).
		ws := mvcc.NewWatchableStore(hubCfg)
		quads = append(quads, quadrant{
			name:    "producer store + built-in watch",
			watch:   ws,
			drive:   func(k keyspace.Key, v []byte) { ws.Put(k, v) },
			version: ws.CurrentVersion,
			keyOf:   func(ev core.ChangeEvent) keyspace.Key { return ev.Key },
			cleanup: ws.Close,
		})

		// Q2: producer storage, external watch system (MySQL/TiDB + Snappy).
		st2 := mvcc.NewStore()
		hub2 := core.NewHub(hubCfg)
		detach2 := st2.AttachCDC(keyspace.Full(), hub2)
		quads = append(quads, quadrant{
			name:    "producer store + external watch",
			watch:   hub2,
			drive:   func(k keyspace.Key, v []byte) { st2.Put(k, v) },
			version: st2.CurrentVersion,
			keyOf:   func(ev core.ChangeEvent) keyspace.Key { return ev.Key },
			cleanup: func() { detach2(); hub2.Close() },
		})

		// Q3: ingestion storage, built-in watch ("refined Kafka": explicit
		// store, standard watch API).
		ing3 := ingeststore.NewWatchable(ingeststore.Config{}, hubCfg)
		quads = append(quads, quadrant{
			name:    "ingestion store + built-in watch",
			watch:   ing3,
			drive:   func(k keyspace.Key, v []byte) { ing3.Append(k, v) },
			version: ing3.CurrentSeq,
			keyOf:   eventSeriesKey,
			cleanup: ing3.Close,
		})

		// Q4: ingestion storage, external watch system.
		ing4 := ingeststore.NewStore(ingeststore.Config{})
		hub4 := core.NewHub(hubCfg)
		detach4 := ing4.AttachIngester(hub4)
		quads = append(quads, quadrant{
			name:    "ingestion store + external watch",
			watch:   hub4,
			drive:   func(k keyspace.Key, v []byte) { ing4.Append(k, v) },
			version: ing4.CurrentSeq,
			keyOf:   eventSeriesKey,
			cleanup: func() { detach4(); hub4.Close() },
		})

		// Drive the identical workload through each quadrant and record the
		// per-key payload sequences an observer sees.
		type obs struct {
			perKey map[keyspace.Key][]string
			events int
		}
		results := make([]obs, len(quads))
		tbl := metrics.NewTable("E11 — one workload, four wirings",
			"quadrant", "events observed", "frontier = source version", "per-key sequences")
		var firstSeqs map[keyspace.Key][]string
		allEqual := true
		frontierOK := true

		for qi, q := range quads {
			var mu sync.Mutex
			perKey := map[keyspace.Key][]string{}
			events := 0
			var frontier core.Version
			cancel, err := q.watch.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
				Event: func(ev core.ChangeEvent) {
					mu.Lock()
					k := q.keyOf(ev)
					perKey[k] = append(perKey[k], string(ev.Mut.Value))
					events++
					mu.Unlock()
				},
				Progress: func(p core.ProgressEvent) {
					mu.Lock()
					if p.Version > frontier {
						frontier = p.Version
					}
					mu.Unlock()
				},
			})
			if err != nil {
				return err
			}
			stream := workload.NewUpdateStream(workload.NewUniformKeys(opts.Seed, nKeys))
			for i := 0; i < updates; i++ {
				k, v := stream.Next()
				q.drive(k, v)
			}
			want := q.version()
			converged := settle(func() bool {
				mu.Lock()
				defer mu.Unlock()
				return events >= updates && frontier >= want
			})
			cancel()
			q.cleanup()
			mu.Lock()
			results[qi] = obs{perKey: perKey, events: events}
			gotFrontier := frontier
			mu.Unlock()
			if !converged || gotFrontier < want {
				frontierOK = false
			}
			if qi == 0 {
				firstSeqs = perKey
			} else if !sameSequences(firstSeqs, perKey) {
				allEqual = false
			}
			tbl.AddRow(q.name, events, fmt.Sprintf("%v >= %v", gotFrontier, want),
				map[bool]string{true: "identical", false: "DIVERGED"}[qi == 0 || sameSequences(firstSeqs, perKey)])
		}
		tbl.AddNote("ingestion-store events are immutable appends; their per-series payload sequences match the producer-store per-key update sequences")
		res.Table = tbl

		res.check("all four quadrants deliver every event", func() bool {
			for _, r := range results {
				if r.events != updates {
					return false
				}
			}
			return true
		}(), "events per quadrant: %d %d %d %d", results[0].events, results[1].events, results[2].events, results[3].events)
		res.check("per-key sequences identical across quadrants", allEqual, "compared against quadrant 1")
		res.check("every frontier reached the source version", frontierOK, "progress propagated in all wirings")
		return nil
	})
}

// eventSeriesKey maps an ingestion-store event key "<series>#<seq>" back to
// its series, so sequences compare against the producer-store quadrants.
func eventSeriesKey(ev core.ChangeEvent) keyspace.Key {
	s := string(ev.Key)
	for i := 0; i < len(s); i++ {
		if s[i] == '#' {
			return keyspace.Key(s[:i])
		}
	}
	return ev.Key
}

func sameSequences(a, b map[keyspace.Key][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}
