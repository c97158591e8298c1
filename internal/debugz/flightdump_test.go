package debugz

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/flightrec"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/remote"
	"unbundle/internal/trace"
)

// TestChaosPartitionProducesRetrievableDump is the black box's end-to-end
// proof: a scripted network partition (blackhole: reads stall, writes
// vanish) between a reconnecting watch client and its server must leave a
// dump retrievable over the debug server's /dump endpoint whose timeline
// reconstructs the outage — heartbeat misses, the disconnect, the reconnect
// and the watch resume, with consistent connection/generation/watch IDs —
// alongside the causal traces that kept flowing end to end.
func TestChaosPartitionProducesRetrievableDump(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := flightrec.New(flightrec.Config{Metrics: reg})
	tracer := trace.New(trace.Config{
		SampleEvery: 1,
		Metrics:     reg,
		FinalStage:  trace.StageRemoteDeliver,
	})
	hub := core.NewHub(core.HubConfig{
		Retention: 1 << 12, WatcherBuffer: 1 << 12,
		Metrics: reg, Tracer: tracer, Recorder: rec,
	})
	defer hub.Close()

	srv, err := remote.ServeWith("127.0.0.1:0", hub, nopSnapshotter{}, remote.ServerConfig{
		Metrics:           reg,
		Tracer:            tracer,
		Recorder:          rec,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctrl := remote.NewChaosController(remote.ChaosConfig{})
	client, err := remote.DialWith(srv.Addr(), remote.ClientConfig{
		Metrics:           reg,
		Tracer:            tracer,
		Recorder:          rec,
		HeartbeatInterval: 20 * time.Millisecond,
		Reconnect: remote.ReconnectPolicy{
			Enabled: true, MaxAttempts: -1,
			BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 1,
		},
		Dialer: ctrl.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	capt := flightrec.NewCapturer(flightrec.CaptureConfig{
		Recorder: rec,
		Tracer:   tracer,
		Metrics:  reg,
		Lags:     func() any { return hub.WatcherLags() },
	})
	mon := flightrec.NewMonitor(flightrec.MonitorConfig{
		Detectors: flightrec.StandardDetectors(reg),
		OnTrigger: func(name, reason string) { capt.Trigger(name, reason) },
		Metrics:   reg,
	})

	dbg, err := Serve("127.0.0.1:0", Config{
		Metrics: reg,
		Flight:  rec,
		Dumps:   capt,
		Lags:    hub.WatcherLags,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	var delivered atomic.Int64
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(core.ChangeEvent) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	produce := func(lo, hi int) {
		for i := lo; i <= hi; i++ {
			key := keyspace.Key("k")
			if err := hub.Append(core.ChangeEvent{
				Key:     key,
				Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
				Version: core.Version(i),
				Trace:   tracer.Begin(key, uint64(i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Healthy traffic settles the detector baselines.
	produce(1, 50)
	waitFor(t, "first 50 events", func() bool { return delivered.Load() == 50 })
	for i := 0; i < 5; i++ {
		mon.Tick()
	}

	// The partition: half-open every live connection. Heartbeat-scaled read
	// deadlines expire on both sides; the client redials and resumes.
	ctrl.BlackholeLive()
	produce(51, 100) // lands while partitioned; resume must recover it
	// Wait for the resume to be recorded, not just for the redial: the
	// dump must hold the whole outage, and events 51–100 can still reach the
	// client over the old connection when a read already in flight as the
	// blackhole fell returns them, so their delivery proves no resume.
	waitFor(t, "client reconnect recorded", func() bool {
		for _, r := range rec.Tail(0) {
			if r.Kind == flightrec.KindRemoteReconnect && r.Comp == "remote.client" {
				return true
			}
		}
		return false
	})
	waitFor(t, "all 100 events", func() bool { return delivered.Load() == 100 })
	waitFor(t, "heartbeat miss counted", func() bool {
		return reg.Counter("remote_client_heartbeat_misses_total").Value()+
			reg.Counter("remote_server_heartbeat_misses_total").Value() > 0
	})

	// The next detector tick sees the heartbeat-miss delta and captures.
	mon.Tick()
	if v := reg.Counter("flightrec_dumps_total").Value(); v != 1 {
		t.Fatalf("flightrec_dumps_total = %d, want 1", v)
	}

	// Retrieve the black box over HTTP, exactly as an operator would.
	var index []struct {
		ID       int    `json:"id"`
		Detector string `json:"detector"`
	}
	getJSON(t, "http://"+dbg.Addr()+"/dump", &index)
	if len(index) != 1 || index[0].Detector != "heartbeat-gap" {
		t.Fatalf("dump index = %+v", index)
	}
	var dump flightrec.Dump
	getJSON(t, "http://"+dbg.Addr()+"/dump?id=1", &dump)

	// Reconstruct the outage timeline from the dump. Every expected phase
	// must be present, in causal order, with consistent IDs.
	var (
		hbMiss, srvDisc bool
		discSeqByGen    = map[int64]uint64{} // client disconnects: gen → seq
		reconSeqByGen   = map[int64]uint64{} // client reconnects: gen → seq
		resumeID        int64
		resumeVer       uint64
		seqResume       uint64
	)
	for _, r := range dump.Records {
		switch {
		case r.Kind == flightrec.KindHeartbeatMiss:
			hbMiss = true
		case r.Kind == flightrec.KindRemoteDisconnect && r.Comp == "remote.server":
			srvDisc = true
		case r.Kind == flightrec.KindRemoteDisconnect && r.Comp == "remote.client":
			discSeqByGen[r.ID] = r.Seq
		case r.Kind == flightrec.KindRemoteReconnect && r.Comp == "remote.client":
			reconSeqByGen[r.ID] = r.Seq
		case r.Kind == flightrec.KindRemoteResume:
			resumeID, resumeVer, seqResume = r.ID, r.Version, r.Seq
		}
	}
	if !hbMiss {
		t.Error("timeline missing heartbeat-miss")
	}
	if !srvDisc {
		t.Error("timeline missing server-side disconnect")
	}
	if len(discSeqByGen) == 0 || len(reconSeqByGen) == 0 || seqResume == 0 {
		t.Fatalf("timeline incomplete: disconnects %v, reconnects %v, resume seq %d",
			discSeqByGen, reconSeqByGen, seqResume)
	}
	// Every reconnect at generation G must follow a recorded disconnect of a
	// strictly earlier generation — the IDs stitch the outage together.
	for gen, reconSeq := range reconSeqByGen {
		matched := false
		for dgen, discSeq := range discSeqByGen {
			if dgen < gen && discSeq < reconSeq {
				matched = true
			}
		}
		if !matched {
			t.Errorf("reconnect gen %d (seq %d) has no preceding disconnect (have %v)",
				gen, reconSeq, discSeqByGen)
		}
	}
	if resumeID < 0 {
		t.Errorf("resume record carries no watch id")
	}
	if resumeVer == 0 || resumeVer > 100 {
		t.Errorf("resume version %d outside the delivered window", resumeVer)
	}

	// The dump's causal traces correlate with the timeline: sampled events
	// completed through the remote path during the outage window.
	if len(dump.Traces) == 0 {
		t.Error("dump carries no completed traces")
	}
	for _, tr := range dump.Traces {
		if tr.Stages[trace.StageRemoteDeliver] == 0 {
			t.Fatalf("trace %d incomplete: no remote-deliver stage", tr.ID)
		}
	}

	// The heartbeat-miss burst that triggered the capture is visible in the
	// dump's counter delta, not averaged away.
	if d := dump.CounterDelta["remote_client_heartbeat_misses_total"] +
		dump.CounterDelta["remote_server_heartbeat_misses_total"]; d == 0 {
		t.Error("dump counter delta missing the heartbeat misses")
	}

	// /flightrec serves the live ring too.
	var live []flightrec.Record
	getJSON(t, "http://"+dbg.Addr()+"/flightrec?n=512", &live)
	if len(live) == 0 {
		t.Fatal("/flightrec returned an empty timeline")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
