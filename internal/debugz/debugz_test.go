package debugz

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/govern"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/remote"
	"unbundle/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestEndpointsWithNilSources(t *testing.T) {
	h := Handler(Config{Metrics: metrics.NewRegistry()})
	for path, wantType := range map[string]string{
		"/":          "text/plain",
		"/metrics":   "text/plain",
		"/watchers":  "application/json",
		"/traces":    "application/json",
		"/regions":   "application/json",
		"/conns":     "application/json",
		"/flightrec": "application/json",
		"/dump":      "application/json",
	} {
		rec := get(t, h, path)
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, wantType) {
			t.Fatalf("GET %s Content-Type = %q, want %q prefix", path, ct, wantType)
		}
	}
	// JSON endpoints with no sources serve empty arrays, not null.
	for _, path := range []string{"/watchers", "/traces", "/regions", "/conns", "/flightrec", "/dump"} {
		var v []json.RawMessage
		if err := json.Unmarshal(get(t, h, path).Body.Bytes(), &v); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v", path, err)
		}
		if v == nil {
			t.Fatalf("GET %s returned null, want []", path)
		}
	}
	// Lifecycle transitions are served by /flightrec alone; there is no /logz.
	for _, path := range []string{"/nope", "/logz"} {
		if rec := get(t, h, path); rec.Code != 404 {
			t.Fatalf("GET %s = %d, want 404", path, rec.Code)
		}
	}
	if rec := get(t, h, "/debug/pprof/"); rec.Code != 200 {
		t.Fatalf("GET /debug/pprof/ = %d", rec.Code)
	}
}

// TestTracesEndToEndSampled drives a real store+hub pipeline with 1-in-64
// sampling and asserts the acceptance criterion: every trace the debug
// server reports carries all four pipeline stages with coherent latencies.
func TestTracesEndToEndSampled(t *testing.T) {
	reg := metrics.NewRegistry()
	tracer := trace.New(trace.Config{SampleEvery: 64, Capacity: 256, Metrics: reg})
	// WatcherBuffer must exceed the whole run's events: if the ring
	// overflows, the hub correctly lags the watcher out and wipes the
	// undelivered queue, and the wiped events would never reach the deliver
	// stage this test asserts on.
	ws := mvcc.NewWatchableStore(core.HubConfig{Metrics: reg, Tracer: tracer, WatcherBuffer: 1 << 13})
	defer ws.Close()

	var delivered atomic.Int64
	cancel, err := ws.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(core.ChangeEvent) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	const n = 64 * 16
	for i := 0; i < n; i++ {
		ws.Put(keyspace.Key(fmt.Sprintf("k%d", i%32)), []byte{byte(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for tracer.CompletedCount() < n/64 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tracer.CompletedCount() < n/64 {
		t.Fatalf("only %d traces completed, want >= %d", tracer.CompletedCount(), n/64)
	}

	h := Handler(Config{
		Metrics: reg,
		Tracer:  tracer,
		Lags:    ws.Hub().WatcherLags,
	})
	var traces []struct {
		ID      uint64           `json:"id"`
		Version uint64           `json:"version"`
		Stages  map[string]int64 `json:"stages_unix_ns"`
		Lat     map[string]int64 `json:"stage_latency_ns"`
		E2ENs   int64            `json:"e2e_ns"`
	}
	if err := json.Unmarshal(get(t, h, "/traces").Body.Bytes(), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) < n/64 {
		t.Fatalf("/traces shows %d traces, want >= %d", len(traces), n/64)
	}
	for _, tr := range traces {
		if len(tr.Stages) < 4 {
			t.Fatalf("trace %d has %d stages, want >= 4: %v", tr.ID, len(tr.Stages), tr.Stages)
		}
		for _, s := range []string{"commit", "append", "enqueue", "deliver"} {
			if tr.Stages[s] == 0 {
				t.Fatalf("trace %d missing stage %q: %v", tr.ID, s, tr.Stages)
			}
		}
		if tr.E2ENs < 0 || tr.E2ENs != tr.Stages["deliver"]-tr.Stages["commit"] {
			t.Fatalf("trace %d e2e %d inconsistent with stamps %v", tr.ID, tr.E2ENs, tr.Stages)
		}
		if tr.Version == 0 {
			t.Fatalf("trace %d has no version", tr.ID)
		}
	}

	// /watchers agrees with Hub.Stats: the single watcher's frontier is the
	// hub's MaxSeen once everything drained.
	for delivered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var lags []core.WatcherLag
	if err := json.Unmarshal(get(t, h, "/watchers").Body.Bytes(), &lags); err != nil {
		t.Fatal(err)
	}
	if len(lags) != 1 {
		t.Fatalf("/watchers shows %d watchers, want 1", len(lags))
	}
	if lags[0].Frontier != ws.Hub().Stats().MaxSeen {
		t.Fatalf("/watchers frontier %v != Hub.Stats().MaxSeen %v",
			lags[0].Frontier, ws.Hub().Stats().MaxSeen)
	}
	if lags[0].Delivered != delivered.Load() {
		t.Fatalf("/watchers delivered %d != callback count %d", lags[0].Delivered, delivered.Load())
	}

	// /metrics includes the tracing histograms and the lag gauges.
	body := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"trace_sampled_total", "trace_e2e_ns",
		"core_hub_watcher_version_lag_max", "core_hub_watcher_time_behind_ns_max",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsSurfacesRemoteTransport drives a loopback remote pair against
// one registry and asserts the transport's frame/byte counters come out of
// /metrics with live values — the operator-facing view of the wire path.
func TestMetricsSurfacesRemoteTransport(t *testing.T) {
	reg := metrics.NewRegistry()
	hub := core.NewHub(core.HubConfig{Metrics: reg})
	defer hub.Close()
	srv, err := remote.ServeWith("127.0.0.1:0", hub, nopSnapshotter{}, remote.ServerConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := remote.DialWith(srv.Addr(), remote.ClientConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var delivered atomic.Int64
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{
		Event: func(core.ChangeEvent) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	const n = 100
	for i := 1; i <= n; i++ {
		if err := hub.Append(core.ChangeEvent{
			Key:     keyspace.Key(fmt.Sprintf("k%d", i)),
			Mut:     core.Mutation{Op: core.OpPut, Value: []byte("v")},
			Version: core.Version(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() < n {
		t.Fatalf("delivered %d/%d events", delivered.Load(), n)
	}

	body := get(t, Handler(Config{Metrics: reg}), "/metrics").Body.String()
	values := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err == nil {
			values[name] = v
		}
	}
	for _, name := range []string{
		"remote_server_frames_total", "remote_server_bytes_total",
		"remote_server_events_total",
		"remote_client_frames_total", "remote_client_bytes_total",
		"remote_client_events_total",
	} {
		v, ok := values[name]
		if !ok {
			t.Fatalf("/metrics missing %q:\n%s", name, body)
		}
		if v <= 0 {
			t.Fatalf("/metrics %s = %d, want > 0", name, v)
		}
	}
}

type nopSnapshotter struct{}

func (nopSnapshotter) SnapshotRange(keyspace.Range) ([]core.Entry, core.Version, error) {
	return nil, 0, nil
}

func TestRegionsEndpoint(t *testing.T) {
	ks := core.NewKnowledgeSet()
	ks.AddSnapshot(keyspace.Range{Low: "a", High: "m"}, 5)
	ks.ExtendTo(keyspace.Range{Low: "a", High: "m"}, 9)
	h := Handler(Config{Regions: func() []core.KnowledgeRegion {
		return append([]core.KnowledgeRegion(nil), ks.Regions()...)
	}})
	var regions []struct {
		Low   string `json:"low"`
		High  string `json:"high"`
		VLow  uint64 `json:"version_low"`
		VHigh uint64 `json:"version_high"`
	}
	if err := json.Unmarshal(get(t, h, "/regions").Body.Bytes(), &regions); err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("regions = %+v, want 1 region", regions)
	}
	r := regions[0]
	if r.Low != "a" || r.High != "m" || r.VLow != 5 || r.VHigh != 9 {
		t.Fatalf("region = %+v", r)
	}
}

func TestServeAndClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Config{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestConnsEndpoint wires a live remote server behind /conns and asserts the
// connection and its watch count come through.
func TestConnsEndpoint(t *testing.T) {
	ws := mvcc.NewWatchableStore(core.HubConfig{})
	defer ws.Close()
	srv, err := remote.Serve("127.0.0.1:0", ws, ws)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cancel, err := client.Watch(keyspace.Full(), core.NoVersion, core.Funcs{})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	h := Handler(Config{Metrics: metrics.NewRegistry(), RemoteConns: srv.Conns})
	deadline := time.Now().Add(5 * time.Second)
	for {
		var conns []remote.ConnInfo
		if err := json.Unmarshal(get(t, h, "/conns").Body.Bytes(), &conns); err != nil {
			t.Fatalf("GET /conns: invalid JSON: %v", err)
		}
		if len(conns) == 1 && conns[0].Watches == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /conns never showed the watch conn: %+v", conns)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealthzTracksGovernorPressure drives the health probe through both
// states: 200 while the governor is steady (or merely evicting, which is
// in-contract housekeeping), 503 once it escalates to shedding, and back to
// 200 after the pressure subsides.
func TestHealthzTracksGovernorPressure(t *testing.T) {
	g := govern.NewGovernor(govern.Config{Budget: 1000, Metrics: metrics.NewRegistry()})
	defer g.Close()
	acct := g.Account("hub")
	h := Handler(Config{Metrics: metrics.NewRegistry(), Govern: g.Snapshot})

	if rec := get(t, h, "/healthz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("steady /healthz = %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	acct.Charge(900) // 90% of budget: past ShedFrac, below RejectFrac
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shedding /healthz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "shedding") {
		t.Fatalf("shedding /healthz body = %q, want it to say shedding", rec.Body.String())
	}

	var st govern.Stats
	if err := json.Unmarshal(get(t, h, "/govern").Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /govern: invalid JSON: %v", err)
	}
	if st.BudgetBytes != 1000 || st.UsedBytes != 900 || st.Pressure != "shed" {
		t.Fatalf("GET /govern = %+v, want budget 1000 used 900 pressure shed", st)
	}
	if len(st.Accounts) != 1 || st.Accounts[0].Name != "hub" || st.Accounts[0].Used != 900 {
		t.Fatalf("GET /govern accounts = %+v, want hub at 900", st.Accounts)
	}

	acct.Release(900)
	if rec := get(t, h, "/healthz"); rec.Code != 200 {
		t.Fatalf("recovered /healthz = %d, want 200", rec.Code)
	}
}

// TestHealthzUngoverned: with no governor wired, the probe always reports
// healthy and /govern serves a zero snapshot rather than an error.
func TestHealthzUngoverned(t *testing.T) {
	h := Handler(Config{Metrics: metrics.NewRegistry()})
	rec := get(t, h, "/healthz")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ungoverned") {
		t.Fatalf("/healthz = %d %q, want 200 ungoverned", rec.Code, rec.Body.String())
	}
	var st govern.Stats
	if err := json.Unmarshal(get(t, h, "/govern").Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /govern: invalid JSON: %v", err)
	}
	if st.Pressure != "steady" || st.BudgetBytes != 0 {
		t.Fatalf("GET /govern = %+v, want zero steady snapshot", st)
	}
}
