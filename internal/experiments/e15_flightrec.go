package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/flightrec"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/remote"
	"unbundle/internal/trace"
)

func init() {
	register(Experiment{
		ID:     "E15",
		Title:  "Flight recorder: a silent partition leaves a reconstructible black box",
		Anchor: "§2/§4.2 (silent failure made auditable)",
		Run:    runE15,
	})
}

// runE15 reruns the E13 half-open partition — the paper's worst failure
// shape, where nothing errors and only heartbeats can tell — with the
// flight-recorder stack wired through every layer, then plays investigator:
// after recovery, the only evidence consulted is the anomaly-triggered dump.
// The dump alone must reconstruct the outage timeline (heartbeat misses →
// disconnects → reconnects → resumes, with consistent connection
// generations) and carry the causal traces that completed through the
// remote path around it. The claim under test: watch makes divergence
// *detectable*, and the black box makes the detection *auditable* after
// the fact, at fixed memory cost and with zero operator polling.
func runE15(opts Options) (*Result, error) {
	e, _ := Get("E15")
	return run(e, opts, func(res *Result) error {
		consumers := opts.pick(2, 4)
		perPhase := opts.pick(200, 1000)
		const keys = 64

		reg := metrics.NewRegistry()
		rec := flightrec.New(flightrec.Config{Metrics: reg})
		tracer := trace.New(trace.Config{
			SampleEvery: opts.pick(8, 32),
			Metrics:     reg,
			FinalStage:  trace.StageRemoteDeliver,
		})
		ws := mvcc.NewWatchableStore(core.HubConfig{
			Retention: 1 << 15, WatcherBuffer: 1 << 16,
			Metrics: reg, Tracer: tracer, Recorder: rec,
		})
		defer ws.Close()
		srv, err := remote.ServeWith("127.0.0.1:0", ws, ws, remote.ServerConfig{
			Metrics:           reg,
			Tracer:            tracer,
			Recorder:          rec,
			HeartbeatInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		defer srv.Close()

		// Detection and capture run exactly as in production, except the
		// tick is driven by the experiment loop instead of a wall clock.
		capt := flightrec.NewCapturer(flightrec.CaptureConfig{
			Recorder: rec,
			Tracer:   tracer,
			Metrics:  reg,
			Lags:     func() any { return ws.Hub().WatcherLags() },
		})
		mon := flightrec.NewMonitor(flightrec.MonitorConfig{
			Detectors: flightrec.StandardDetectors(reg),
			OnTrigger: func(name, reason string) { capt.Trigger(name, reason) },
			Metrics:   reg,
		})

		ctrl := remote.NewChaosController(remote.ChaosConfig{Seed: opts.Seed})
		delivered := make([]*atomic.Int64, consumers)
		for i := 0; i < consumers; i++ {
			client, err := remote.DialWith(srv.Addr(), remote.ClientConfig{
				Metrics:           reg,
				Tracer:            tracer,
				Recorder:          rec,
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
			delivered[i] = &atomic.Int64{}
			n := delivered[i]
			cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
				Event: func(core.ChangeEvent) { n.Add(1) },
			})
			if err != nil {
				return err
			}
			defer cancel()
		}

		v := 0
		produce := func(n int) {
			for i := 0; i < n; i++ {
				v++
				ws.Put(keyspace.NumericKey(v%keys), []byte(fmt.Sprintf("v%d", v)))
			}
		}
		allDelivered := func() bool {
			for _, n := range delivered {
				if n.Load() != int64(v) {
					return false
				}
			}
			return true
		}

		// Phase 1 — healthy traffic settles the detector baselines, just as
		// a production deployment idles through warmup ticks.
		produce(perPhase)
		if err := settle("every consumer to converge in the healthy phase", allDelivered); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			mon.Tick()
		}

		// Phase 2 — the silent partition: every live connection half-opens.
		// Reads stall, writes vanish, no socket errors. Production keeps
		// writing into the void; heartbeat deadlines are the only tell.
		dials := ctrl.Dials()
		ctrl.BlackholeLive()
		produce(perPhase)
		if err := settle("every client to reconnect after the partition", func() bool { return ctrl.Dials() >= dials+consumers }); err != nil {
			return err
		}
		if err := settle("every consumer to converge after recovery", allDelivered); err != nil {
			return err
		}

		// Phase 3 — the next detector tick sees the heartbeat-miss burst and
		// snaps the black box.
		mon.Tick()

		// Phase 4 — the investigation. Only the dump is consulted from here.
		dumps := capt.Dumps()
		if len(dumps) == 0 {
			return fmt.Errorf("no black-box dump captured")
		}
		dump := dumps[len(dumps)-1]

		var (
			hbMiss, srvDisc, cliDisc, recon, resume int
			discSeqByGen                            = map[int64]uint64{}
			reconPaired, reconTotal                 int
		)
		reconSeqByGen := map[int64]uint64{}
		for _, r := range dump.Records {
			switch {
			case r.Kind == flightrec.KindHeartbeatMiss:
				hbMiss++
			case r.Kind == flightrec.KindRemoteDisconnect && r.Comp == "remote.server":
				srvDisc++
			case r.Kind == flightrec.KindRemoteDisconnect && r.Comp == "remote.client":
				cliDisc++
				discSeqByGen[r.ID] = r.Seq
			case r.Kind == flightrec.KindRemoteReconnect && r.Comp == "remote.client":
				recon++
				reconSeqByGen[r.ID] = r.Seq
			case r.Kind == flightrec.KindRemoteResume:
				resume++
			}
		}
		// Generations stitch the story: every reconnect at generation G must
		// follow a recorded disconnect of an earlier generation.
		for gen, reconSeq := range reconSeqByGen {
			reconTotal++
			for dgen, discSeq := range discSeqByGen {
				if dgen < gen && discSeq < reconSeq {
					reconPaired++
					break
				}
			}
		}
		tracesComplete := 0
		for _, tr := range dump.Traces {
			if tr.Stages[trace.StageRemoteDeliver] != 0 {
				tracesComplete++
			}
		}
		hbDelta := dump.CounterDelta["remote_client_heartbeat_misses_total"] +
			dump.CounterDelta["remote_server_heartbeat_misses_total"]

		tbl := metrics.NewTable(fmt.Sprintf(
			"E15 — black box after a silent partition (%d consumers, %d events)",
			consumers, v),
			"evidence in the dump", "count")
		tbl.AddRow("trigger", fmt.Sprintf("%s (%s)", dump.Detector, dump.Reason))
		tbl.AddRow("timeline records", len(dump.Records))
		tbl.AddRow("  heartbeat misses", hbMiss)
		tbl.AddRow("  server-side disconnects", srvDisc)
		tbl.AddRow("  client-side disconnects", cliDisc)
		tbl.AddRow("  reconnects", recon)
		tbl.AddRow("  watch resumes", resume)
		tbl.AddRow("completed causal traces", len(dump.Traces))
		tbl.AddRow("heartbeat misses in counter delta", hbDelta)
		tbl.AddRow("live ring records (total)", rec.Len())
		tbl.AddNote("the partition is silent: no socket errors — every record above descends from heartbeat deadlines")
		tbl.AddNote("generations pair each reconnect to its disconnect; resumes carry the version the watch restarted from")
		res.Table = tbl

		res.check("the silent partition triggered the black box",
			dump.Detector == "heartbeat-gap" && hbDelta > 0,
			"detector %s, %d heartbeat misses in the capture window", dump.Detector, hbDelta)
		res.check("the dump alone reconstructs the outage arc",
			hbMiss > 0 && srvDisc > 0 && cliDisc > 0 && recon > 0 && resume > 0,
			"%d hb-miss, %d srv-disc, %d cli-disc, %d reconnect, %d resume records",
			hbMiss, srvDisc, cliDisc, recon, resume)
		res.check("every reconnect pairs with an earlier-generation disconnect",
			reconTotal > 0 && reconPaired == reconTotal,
			"%d/%d reconnects paired by generation", reconPaired, reconTotal)
		res.check("causal traces completed through the remote path around the outage",
			len(dump.Traces) > 0 && tracesComplete == len(dump.Traces),
			"%d traces, all with a remote-deliver stage", len(dump.Traces))
		res.check("every consumer converged after recovery (E13's contract still holds)",
			allDelivered(), "%d consumers at version %d", consumers, v)
		return nil
	})
}
