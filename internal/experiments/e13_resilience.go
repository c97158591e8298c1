package experiments

import (
	"fmt"
	"sync"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/remote"
)

func init() {
	register(Experiment{
		ID:     "E13",
		Title:  "Transport resilience: partitions heal by resume-or-resync, never by silence",
		Anchor: "§4.2/§4.4 (the watch contract under failure)",
		Run:    runE13,
	})
}

// e13Sink is a SyncedConsumer mirroring the watched range into a map — the
// "replica" each consumer maintains, compared byte-for-byte against the
// source store after every partition round.
type e13Sink struct {
	mu    sync.Mutex
	state map[keyspace.Key]string
}

func (s *e13Sink) ResetSnapshot(r keyspace.Range, entries []core.Entry, at core.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.state {
		if r.Contains(k) {
			delete(s.state, k)
		}
	}
	for _, e := range entries {
		s.state[e.Key] = string(e.Value)
	}
}

func (s *e13Sink) ApplyChange(ev core.ChangeEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.Mut.Op == core.OpDelete {
		delete(s.state, ev.Key)
		return
	}
	s.state[ev.Key] = string(ev.Mut.Value)
}

func (s *e13Sink) AdvanceFrontier(core.ProgressEvent) {}

// runE13 drives the full recovery stack — MVCC store → hub → remote server →
// chaos-wrapped TCP → reconnecting client → ResyncWatcher — through repeated
// network partitions, alternating abrupt severs with silent blackholes (the
// half-open shape that, without heartbeats, hangs a watcher forever). After
// every round each consumer's replica must equal the store exactly: the
// paper's trichotomy (current / lagging / explicitly resyncing) holds under
// failure, and "silently stale" is not a reachable state.
func runE13(opts Options) (*Result, error) {
	e, _ := Get("E13")
	return run(e, opts, func(res *Result) error {
		consumers := opts.pick(2, 4)
		rounds := opts.pick(4, 6)
		perRound := opts.pick(300, 1500)
		const keys = 128

		reg := metrics.NewRegistry()
		ws := mvcc.NewWatchableStore(core.HubConfig{Retention: 1 << 15, WatcherBuffer: 1 << 16, Metrics: reg})
		defer ws.Close()
		srv, err := remote.ServeWith("127.0.0.1:0", ws, ws, remote.ServerConfig{
			Metrics:           reg,
			HeartbeatInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer srv.Close()

		ctrl := remote.NewChaosController(remote.ChaosConfig{Seed: opts.Seed})
		sinks := make([]*e13Sink, consumers)
		watchers := make([]*core.ResyncWatcher, consumers)
		for i := 0; i < consumers; i++ {
			client, err := remote.DialWith(srv.Addr(), remote.ClientConfig{
				Metrics:           reg,
				HeartbeatInterval: 20 * time.Millisecond,
				Reconnect: remote.ReconnectPolicy{
					Enabled:     true,
					MaxAttempts: -1,
					BaseBackoff: 2 * time.Millisecond,
					MaxBackoff:  50 * time.Millisecond,
					Seed:        opts.Seed + int64(i) + 1,
				},
				Dialer: ctrl.Dialer(),
			})
			if err != nil {
				return err
			}
			defer client.Close()
			sinks[i] = &e13Sink{state: make(map[keyspace.Key]string)}
			watchers[i] = core.NewResyncWatcher(client, client, keyspace.Full(), sinks[i])
			if err := watchers[i].Start(); err != nil {
				return err
			}
			defer watchers[i].Stop()
		}

		// converged reports whether every consumer replica equals the store.
		// Only called while the producer is idle, so the snapshot is stable.
		converged := func() bool {
			entries, _, err := ws.SnapshotRange(keyspace.Full())
			if err != nil {
				return false
			}
			for _, s := range sinks {
				s.mu.Lock()
				ok := len(s.state) == len(entries)
				if ok {
					for _, e := range entries {
						if s.state[e.Key] != string(e.Value) {
							ok = false
							break
						}
					}
				}
				s.mu.Unlock()
				if !ok {
					return false
				}
			}
			return true
		}

		partitions := 0
		v := 0
		for round := 1; round <= rounds; round++ {
			for i := 0; i < perRound; i++ {
				v++
				ws.Put(keyspace.NumericKey(v%keys), []byte(fmt.Sprintf("r%d-%d", round, v)))
			}
			if err := settle(fmt.Sprintf("every consumer to converge in round %d", round), converged); err != nil {
				return err
			}
			if round < rounds {
				dials := ctrl.Dials()
				if round%2 == 1 {
					ctrl.SeverAll() // abrupt: FIN/RST visible immediately
				} else {
					ctrl.BlackholeLive() // silent: only heartbeats can tell
				}
				partitions++
				if err := settle(fmt.Sprintf("every client to reconnect after partition %d", partitions), func() bool { return ctrl.Dials() >= dials+consumers }); err != nil {
					return err
				}
			}
		}

		snap := reg.Snapshot()
		var totalEvents, totalResyncs int64
		for _, w := range watchers {
			totalEvents += w.Events()
			totalResyncs += w.Resyncs()
		}
		reconnects := snap.Counters["remote_client_reconnects_total"]
		resumed := snap.Counters["remote_client_resumed_watches_total"]
		hb := snap.Counters["remote_client_heartbeats_total"] + snap.Counters["remote_server_heartbeats_total"]

		tbl := metrics.NewTable(fmt.Sprintf(
			"E13 — %d consumers through %d partitions (sever + blackhole alternating)",
			consumers, partitions),
			"metric", "value")
		tbl.AddRow("events produced", v)
		tbl.AddRow("events applied (all consumers)", totalEvents)
		tbl.AddRow("client reconnects", reconnects)
		tbl.AddRow("watches resumed from version", resumed)
		tbl.AddRow("explicit resync cycles", totalResyncs)
		tbl.AddRow("heartbeat frames (both ends)", hb)
		tbl.AddRow("conn drops accounted", snap.Counters["remote_server_conn_drops_total"])
		tbl.AddNote("blackholed rounds are detected purely by heartbeat deadlines; severed rounds by socket errors")
		tbl.AddNote("convergence = every consumer replica byte-equal to the store after each round")
		res.Table = tbl

		res.check("every consumer converged after every partition round",
			converged(), "%d consumers, %d partitions", consumers, partitions)
		res.check("every partition produced a reconnect per consumer",
			reconnects >= int64(partitions*consumers),
			"%d reconnects across %d partitions × %d consumers", reconnects, partitions, consumers)
		res.check("recovery was resume-or-resync, never a hung watcher",
			resumed > 0 && totalEvents >= int64(v),
			"%d watches resumed, %d events applied of %d produced", resumed, totalEvents, v)
		res.check("heartbeats flowed (the blackhole rounds depend on them)",
			hb > 0, "%d heartbeat frames", hb)
		return nil
	})
}
