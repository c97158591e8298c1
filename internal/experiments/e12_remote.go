package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/remote"
)

func init() {
	register(Experiment{
		ID:     "E12",
		Title:  "Remote transport batching: the network boundary keeps the batched feed",
		Anchor: "§5 (standalone watch system)",
		Run:    runE12,
	})
}

// runE12 measures the remote watch transport in its two regimes over
// loopback TCP.
//
// Trickle: the producer appends one event at a time and waits for delivery —
// the latency regime. Every event rides its own wire frame (events/frame ≈ 1)
// and flush-on-queue-empty keeps delivery immediate.
//
// Firehose: the producer appends CDC-style batches at full speed — the
// throughput regime. The hub's ring drains whole runs, the transport carries
// them as single EventBatch frames, and the per-connection writer coalesces
// flushes, so frames and bytes per event collapse while the lag-or-resync
// contract stays intact (zero resyncs at a paced window below the outbox
// bound).
func runE12(opts Options) (*Result, error) {
	e, _ := Get("E12")
	return run(e, opts, func(res *Result) error {
		watchers := opts.pick(4, 8)
		trickleN := opts.pick(500, 2000)
		firehoseN := opts.pick(8000, 100000)
		const batch = 64

		type phaseStats struct {
			events        int64
			frames        int64
			bytesPerEvent float64
			evsPerFrame   float64
			resyncs       int64
			took          time.Duration
		}

		runPhase := func(n, appendBatch int) (phaseStats, error) {
			var st phaseStats
			reg := metrics.NewRegistry()
			hub := core.NewHub(core.HubConfig{Retention: 1 << 16, WatcherBuffer: 1 << 20, Metrics: reg})
			defer hub.Close()
			srv, err := remote.ServeWith("127.0.0.1:0", hub, nil2Snap{}, remote.ServerConfig{Metrics: reg})
			if err != nil {
				return st, err
			}
			defer srv.Close()

			delivered := make([]atomic.Int64, watchers)
			var resyncs atomic.Int64
			for w := 0; w < watchers; w++ {
				c, err := remote.DialWith(srv.Addr(), remote.ClientConfig{Metrics: reg})
				if err != nil {
					return st, err
				}
				defer c.Close()
				d := &delivered[w]
				cancel, err := c.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
					Event:  func(core.ChangeEvent) { d.Add(1) },
					Resync: func(core.ResyncEvent) { resyncs.Add(1) },
				})
				if err != nil {
					return st, err
				}
				defer cancel()
			}
			minDelivered := func() int64 {
				m := delivered[0].Load()
				for i := 1; i < watchers; i++ {
					if v := delivered[i].Load(); v < m {
						m = v
					}
				}
				return m
			}

			start := time.Now()
			evs := make([]core.ChangeEvent, 0, appendBatch)
			produced := 0
			for produced < n {
				evs = evs[:0]
				for i := 0; i < appendBatch && produced < n; i++ {
					produced++
					evs = append(evs, core.ChangeEvent{
						Key:     keyspace.NumericKey(produced % 256),
						Mut:     core.Mutation{Op: core.OpPut, Value: []byte("0123456789abcdef")},
						Version: core.Version(produced),
					})
				}
				if err := hub.AppendBatch(evs); err != nil {
					return st, err
				}
				if appendBatch == 1 {
					// Trickle: fully drained between events, so every event
					// crosses the wire in its own frame.
					if err := settle("trickle delivery", func() bool { return minDelivered() >= int64(produced) }); err != nil {
						return st, err
					}
				} else if produced%512 == 0 {
					// Firehose: paced window below the connection outbox bound.
					target := int64(produced - 4096)
					if err := settle("firehose delivery", func() bool { return minDelivered() >= target }); err != nil {
						return st, err
					}
				}
			}
			if err := settle("the final drain", func() bool { return minDelivered() >= int64(n) }); err != nil {
				return st, err
			}
			st.took = time.Since(start)

			snap := reg.Snapshot()
			st.events = snap.Counters["remote_server_events_total"]
			st.frames = snap.Counters["remote_server_frames_total"]
			if st.events > 0 {
				st.bytesPerEvent = float64(snap.Counters["remote_server_bytes_total"]) / float64(st.events)
			}
			if st.frames > 0 {
				st.evsPerFrame = float64(st.events) / float64(st.frames)
			}
			st.resyncs = resyncs.Load()
			return st, nil
		}

		trickle, err := runPhase(trickleN, 1)
		if err != nil {
			return err
		}
		firehose, err := runPhase(firehoseN, batch)
		if err != nil {
			return err
		}
		fhRate := float64(firehoseN) * float64(watchers) / firehose.took.Seconds()

		tbl := metrics.NewTable("E12 — remote transport over loopback TCP, "+
			fmt.Sprintf("%d watchers", watchers),
			"regime", "events", "wire frames", "events/frame", "wire B/event", "resyncs")
		tbl.AddRow("trickle (1 event, drained)", trickle.events, trickle.frames,
			fmt.Sprintf("%.1f", trickle.evsPerFrame), fmt.Sprintf("%.1f", trickle.bytesPerEvent), trickle.resyncs)
		tbl.AddRow(fmt.Sprintf("firehose (batches of %d)", batch), firehose.events, firehose.frames,
			fmt.Sprintf("%.1f", firehose.evsPerFrame), fmt.Sprintf("%.1f", firehose.bytesPerEvent), firehose.resyncs)
		tbl.AddNote("firehose fan-out throughput: %.0f events/sec across %d watchers", fhRate, watchers)
		tbl.AddNote("frames and bytes from remote_server_* counters; one EventBatch frame carries one ring-drain run")
		res.Table = tbl

		res.check("trickle delivers every event without resync",
			trickle.resyncs == 0 && trickle.events == int64(trickleN*watchers),
			"%d events, %d resyncs", trickle.events, trickle.resyncs)
		res.check("firehose delivers every event without resync",
			firehose.resyncs == 0 && firehose.events == int64(firehoseN*watchers),
			"%d events, %d resyncs", firehose.events, firehose.resyncs)
		res.check("batched feed survives the network boundary",
			firehose.evsPerFrame >= 8,
			"%.1f events/frame under load", firehose.evsPerFrame)
		res.check("wire batching amortizes framing overhead",
			firehose.bytesPerEvent < trickle.bytesPerEvent,
			"%.1f B/event batched vs %.1f B/event trickle", firehose.bytesPerEvent, trickle.bytesPerEvent)
		return nil
	})
}

// nil2Snap is an empty Snapshotter: E12 never resyncs, so recovery reads are
// out of scope.
type nil2Snap struct{}

func (nil2Snap) SnapshotRange(keyspace.Range) ([]core.Entry, core.Version, error) {
	return nil, 0, nil
}
