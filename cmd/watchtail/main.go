// Command watchtail demonstrates the watch contract interactively: it runs
// a WatchableStore, drives a synthetic writer against it, and tails a key
// range — printing change events, progress marks, and (if you shrink the
// retention) resync signals, exactly as a consumer would see them.
//
// Usage:
//
//	watchtail                          # tail the whole keyspace for 3s
//	watchtail -prefix user/ -dur 10s   # tail a prefix
//	watchtail -retention 16            # tiny soft state: watch resyncs happen
//	watchtail -metrics                 # dump the metrics registry at exit
//	watchtail -debug-addr :6060        # serve /metrics /watchers /traces
//	                                   # /regions /debug/pprof while tailing
//	watchtail -trace-every 8           # sample 1-in-8 events into /traces
//	watchtail -remote                  # tail through the batched TCP
//	                                   # transport on loopback instead of
//	                                   # in-process
//	watchtail -remote -reconnect       # auto-reconnect and resume the watch
//	                                   # if the connection drops
//	watchtail -remote -heartbeat 250ms # liveness probes every 250ms (0 =
//	                                   # transport default, negative = off)
//	watchtail -flightrec               # run the flight-recorder stack: tail
//	                                   # the black box at exit, dump on any
//	                                   # anomaly (serve it at -debug-addr's
//	                                   # /flightrec and /dump)
//	watchtail -budget 1048576          # run under a 1 MiB memory governor:
//	                                   # retention evicts, laggards shed, and
//	                                   # admission refusals print a visible
//	                                   # backoff instead of growing the heap
//	watchtail -budget 1048576 -govern  # also dump governor stats at exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"unbundle"
)

func main() {
	var (
		prefix     = flag.String("prefix", "", "key prefix to watch (empty = everything)")
		dur        = flag.Duration("dur", 3*time.Second, "how long to tail")
		retention  = flag.Int("retention", 4096, "watch hub soft-state window (events)")
		rate       = flag.Duration("rate", 100*time.Millisecond, "writer interval")
		dumpMet    = flag.Bool("metrics", false, "dump the metrics registry at exit")
		debugAddr  = flag.String("debug-addr", "", "serve the debug HTTP server on this address (empty = off)")
		traceEvery = flag.Int("trace-every", 0, "sample 1 in N events into the trace ring (0 = off)")
		remoteTail = flag.Bool("remote", false, "tail through the batched TCP transport on loopback")
		reconnect  = flag.Bool("reconnect", false, "with -remote: auto-reconnect with backoff and resume the watch")
		heartbeat  = flag.Duration("heartbeat", 0, "with -remote: heartbeat interval (0 = transport default, negative = disabled)")
		flightRec  = flag.Bool("flightrec", false, "run the flight recorder + anomaly detectors; print the black-box tail at exit")
		budget     = flag.Int64("budget", 0, "memory governor budget in bytes (0 = ungoverned)")
		governDump = flag.Bool("govern", false, "with -budget: dump governor stats at exit")
	)
	flag.Parse()

	var tracer *unbundle.Tracer
	if *traceEvery > 0 {
		cfg := unbundle.TraceConfig{SampleEvery: *traceEvery}
		if *remoteTail {
			// Traces complete at the client callback, spanning all six
			// stages: commit → append → enqueue → deliver → remote-enqueue
			// → remote-deliver.
			cfg.FinalStage = unbundle.TraceStageRemoteDeliver
		}
		tracer = unbundle.NewTracer(cfg)
	}
	// The flight-recorder stack: an always-on event ring wired through every
	// layer below, detectors on a 1s cadence, dumps retained in memory (and
	// served at /dump when -debug-addr is set).
	var flight *unbundle.FlightStack
	var recorder *unbundle.FlightRecorder
	if *flightRec {
		flight = unbundle.NewFlightStack(unbundle.FlightStackConfig{Tracer: tracer})
		recorder = flight.Rec
		flight.Mon.Start()
		defer flight.Mon.Stop()
	}

	// The memory governor: one process-wide budget the hub's retention,
	// watcher rings and (with -remote) the transport outbox all charge into.
	var gov *unbundle.Governor
	if *budget > 0 {
		gov = unbundle.NewGovernor(unbundle.GovernorConfig{Budget: *budget, Recorder: recorder})
		defer gov.Close()
		st := gov.Snapshot()
		fmt.Printf("memory governor: budget %d bytes, pressure %s (evict -> shed -> reject)\n",
			st.BudgetBytes, st.Pressure)
	}

	store := unbundle.NewWatchableStore(unbundle.HubConfig{Retention: *retention, Tracer: tracer, Recorder: recorder, Governor: gov})
	defer store.Close()

	// The view the tail consumes from: the store itself, or — with -remote —
	// a WatchClient dialed against a loopback WatchServer, so events cross
	// the batched wire protocol on their way to the callbacks below.
	var view interface {
		unbundle.Watchable
		unbundle.Snapshotter
	} = store
	var watchSrv *unbundle.WatchServer
	if *remoteTail {
		srv, err := unbundle.ServeWatchWith("127.0.0.1:0", store, store,
			unbundle.WatchServerConfig{Tracer: tracer, HeartbeatInterval: *heartbeat, Recorder: recorder, Governor: gov})
		if err != nil {
			fmt.Fprintf(os.Stderr, "watchtail: watch server: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		watchSrv = srv
		clientCfg := unbundle.WatchClientConfig{Tracer: tracer, HeartbeatInterval: *heartbeat, Recorder: recorder}
		if *reconnect {
			// Zero-value backoff fields take the transport defaults
			// (25ms base doubling to 1s, jittered, 8 attempts per outage).
			clientCfg.Reconnect = unbundle.ReconnectPolicy{Enabled: true}
		}
		client, err := unbundle.DialWatchWith(srv.Addr(), clientCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "watchtail: watch client: %v\n", err)
			os.Exit(1)
		}
		defer client.Close()
		fmt.Printf("tailing over TCP via %s\n", srv.Addr())
		view = client
	}

	// The tailing consumer's knowledge regions (Figure 5), published on the
	// debug server's /regions endpoint. The watch callbacks below are the
	// only writer; the debug server reads under the same lock.
	var ksMu sync.Mutex
	ks := unbundle.NewKnowledgeSet()

	if *debugAddr != "" {
		dbgCfg := unbundle.DebugConfig{
			Tracer: tracer,
			Lags:   store.Hub().WatcherLags,
			Regions: func() []unbundle.KnowledgeRegion {
				ksMu.Lock()
				defer ksMu.Unlock()
				return append([]unbundle.KnowledgeRegion(nil), ks.Regions()...)
			},
		}
		if watchSrv != nil {
			dbgCfg.RemoteConns = watchSrv.Conns
		}
		if flight != nil {
			dbgCfg.Flight = flight.Rec
			dbgCfg.Dumps = flight.Cap
		}
		if gov != nil {
			dbgCfg.Govern = gov.Snapshot
		}
		dbg, err := unbundle.ServeDebug(*debugAddr, dbgCfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "watchtail: debug server: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s (metrics, watchers, traces, regions, govern, healthz, pprof)\n", dbg.Addr())
	}

	// A synthetic writer: three tenants, rotating updates and deletes.
	go func() {
		i := 0
		for {
			tenant := []string{"user/", "order/", "sensor/"}[i%3]
			key := unbundle.Key(fmt.Sprintf("%s%04d", tenant, i%7))
			if i%11 == 10 {
				store.Delete(key)
			} else {
				store.Put(key, []byte(fmt.Sprintf("value-%d", i)))
			}
			i++
			time.Sleep(*rate)
		}
	}()

	r := unbundle.FullRange()
	if *prefix != "" {
		r = unbundle.PrefixRange(unbundle.Key(*prefix))
	}
	// Snapshot-then-watch, by hand, so each step is visible. Under a governor
	// either step may be refused with a retry hint instead of an error — the
	// degradation ladder's last rung, made visible here as a backoff message.
	entries, at, err := view.SnapshotRange(r)
	for {
		var ov *unbundle.Overloaded
		if !errors.As(err, &ov) {
			break
		}
		fmt.Printf("OVERLOADED snapshot refused (%s); backing off %v\n", ov.Reason, ov.RetryAfter)
		time.Sleep(ov.RetryAfter)
		entries, at, err = view.SnapshotRange(r)
	}
	if err != nil {
		panic(err)
	}
	fmt.Printf("snapshot of %v at %v: %d entries\n", r, at, len(entries))
	for _, e := range entries {
		fmt.Printf("  %s = %q (written at %v)\n", e.Key, e.Value, e.Version)
	}
	ksMu.Lock()
	ks.AddSnapshot(r, at)
	ksMu.Unlock()

	cbs := unbundle.Callbacks{
		Event: func(ev unbundle.ChangeEvent) {
			if ev.Mut.Op == unbundle.OpDelete {
				fmt.Printf("event    %v  %s deleted\n", ev.Version, ev.Key)
				return
			}
			fmt.Printf("event    %v  %s = %q\n", ev.Version, ev.Key, ev.Mut.Value)
		},
		Progress: func(p unbundle.ProgressEvent) {
			fmt.Printf("progress %v  complete over %v\n", p.Version, p.Range)
			ksMu.Lock()
			ks.ExtendTo(p.Range, p.Version)
			ksMu.Unlock()
		},
		Resync: func(rs unbundle.ResyncEvent) {
			fmt.Printf("RESYNC   need snapshot >= %v over %v (%s)\n", rs.MinVersion, rs.Range, rs.Reason)
		},
	}
	cancel, err := view.Watch(r, at, cbs)
	for {
		var ov *unbundle.Overloaded
		if !errors.As(err, &ov) {
			break
		}
		fmt.Printf("OVERLOADED watch refused (%s); backing off %v\n", ov.Reason, ov.RetryAfter)
		time.Sleep(ov.RetryAfter)
		cancel, err = view.Watch(r, at, cbs)
	}
	if err != nil {
		panic(err)
	}
	defer cancel()

	time.Sleep(*dur)
	fmt.Println("done")
	if gov != nil && *governDump {
		st := gov.Snapshot()
		fmt.Println("--- govern ---")
		fmt.Printf("pressure %s  used %d of %d budget bytes  sheds=%d rejects=%d relief_runs=%d quarantined=%d\n",
			st.Pressure, st.UsedBytes, st.BudgetBytes, st.Sheds, st.Rejects, st.ReliefRuns, st.Quarantined)
		for _, a := range st.Accounts {
			fmt.Printf("  %-10s %d bytes\n", a.Name, a.Used)
		}
	}
	if *dumpMet {
		fmt.Println("--- metrics ---")
		unbundle.DefaultMetrics().WriteTo(os.Stdout)
	}
	if flight != nil {
		fmt.Println("--- flight recorder ---")
		for _, rec := range flight.Rec.Tail(64) {
			fmt.Printf("%6d %s %-18s %s id=%d v=%d n=%d %s\n",
				rec.Seq, time.Unix(0, rec.At).Format("15:04:05.000"), rec.Kind,
				rec.Comp, rec.ID, rec.Version, rec.N, rec.Detail)
		}
		for _, d := range flight.Cap.Dumps() {
			fmt.Printf("dump %d: %s (%s) — %d records, %d traces\n",
				d.ID, d.Detector, d.Reason, len(d.Records), len(d.Traces))
		}
	}
}
