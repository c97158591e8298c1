// Package debugz is the operational debug server: one HTTP endpoint that
// exposes everything the observability layer collects — the metrics
// registry, the per-watcher lag radar, completed event traces with per-stage
// latencies, watcher knowledge regions, and net/http/pprof.
//
// The handlers read only snapshot APIs (Registry.WriteTo, Hub.WatcherLags,
// Tracer.Completed), so scraping the server never blocks an ingest or
// delivery path. All data sources are optional: a nil source turns its
// endpoint into an empty-but-valid response, which lets every binary wire
// the same server regardless of which subsystems it runs.
package debugz

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"unbundle/internal/core"
	"unbundle/internal/flightrec"
	"unbundle/internal/govern"
	"unbundle/internal/metrics"
	"unbundle/internal/remote"
	"unbundle/internal/trace"
)

// Config names the data sources behind the endpoints. Every field may be
// nil; the corresponding endpoint then serves an empty result.
type Config struct {
	// Metrics backs GET /metrics (plain-text instrument dump); nil uses
	// metrics.Default().
	Metrics *metrics.Registry
	// Tracer backs GET /traces.
	Tracer *trace.Tracer
	// Lags backs GET /watchers — typically Hub.WatcherLags of the process's
	// hub, or a closure merging several hubs.
	Lags func() []core.WatcherLag
	// Regions backs GET /regions — the consumer-side knowledge regions
	// (§4.3), typically read from the process's KnowledgeSet under its own
	// lock.
	Regions func() []core.KnowledgeRegion
	// RemoteConns backs GET /conns — the remote watch server's live
	// connections with their watch count, queued backlog and drain state;
	// typically remote.Server.Conns.
	RemoteConns func() []remote.ConnInfo
	// Flight backs GET /flightrec — the live flight-recorder ring, oldest
	// first (?n= bounds the common records' tail, default 256; every rare
	// record still held is served besides).
	Flight *flightrec.Recorder
	// Dumps backs GET /dump — captured black-box dumps: the index without an
	// id, one full dump with ?id=N.
	Dumps *flightrec.Capturer
	// Govern backs GET /govern (the memory governor's budget, per-account
	// usage, pressure level and shed/reject counters) and turns GET /healthz
	// into a load-bearing probe: 503 while the governor is shedding or
	// rejecting, 200 otherwise. Typically Governor.Snapshot. Nil serves an
	// ungoverned zero snapshot and an always-200 /healthz.
	Govern func() govern.Stats
}

// traceJSON is the wire form of one completed trace.
type traceJSON struct {
	ID      uint64           `json:"id"`
	Key     string           `json:"key"`
	Version uint64           `json:"version"`
	Stages  map[string]int64 `json:"stages_unix_ns"`
	// Latencies maps each reached stage (after the first) to the
	// nanoseconds spent entering it from the previous reached stage.
	Latencies map[string]int64 `json:"stage_latency_ns"`
	E2ENs     int64            `json:"e2e_ns"`
}

// dumpMetaJSON is the /dump index entry: a dump's identity and sizes,
// without its (potentially large) body.
type dumpMetaJSON struct {
	ID       int       `json:"id"`
	At       time.Time `json:"at"`
	Detector string    `json:"detector"`
	Reason   string    `json:"reason"`
	Records  int       `json:"records"`
	Traces   int       `json:"traces"`
	File     string    `json:"file,omitempty"`
}

// regionJSON is the wire form of one knowledge region.
type regionJSON struct {
	Low      string `json:"low"`
	High     string `json:"high"`
	VLow     uint64 `json:"version_low"`
	VHigh    uint64 `json:"version_high"`
	Rendered string `json:"rendered"`
}

// Handler builds the debug mux.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "unbundle debug server\n\n"+
			"/metrics  instrument dump (counters, gauges, histograms)\n"+
			"/watchers per-watcher staleness lag radar (JSON)\n"+
			"/traces   completed event traces, newest first (JSON)\n"+
			"/regions  consumer knowledge regions (JSON)\n"+
			"/conns    remote watch server connections (JSON)\n"+
			"/flightrec flight-recorder tail, oldest first (JSON, ?n= bounds; rare records kept)\n"+
			"/dump     black-box dump index; ?id=N serves one full dump (JSON)\n"+
			"/govern   memory governor budget, accounts and pressure (JSON)\n"+
			"/healthz  liveness probe: 503 while shedding under memory pressure\n"+
			"/debug/pprof/ runtime profiles\n")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = cfg.Metrics.Or().WriteTo(w)
	})

	mux.HandleFunc("/watchers", func(w http.ResponseWriter, r *http.Request) {
		lags := []core.WatcherLag{}
		if cfg.Lags != nil {
			if l := cfg.Lags(); l != nil {
				lags = l
			}
		}
		writeJSON(w, lags)
	})

	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		out := []traceJSON{}
		for _, tr := range cfg.Tracer.Completed() {
			tj := traceJSON{
				ID:        tr.ID,
				Key:       string(tr.Key),
				Version:   tr.Version,
				Stages:    make(map[string]int64, trace.NumStages),
				Latencies: make(map[string]int64, trace.NumStages-1),
			}
			for s := 0; s < trace.NumStages; s++ {
				st := trace.Stage(s)
				if tr.Stages[s] == 0 {
					continue
				}
				tj.Stages[st.String()] = tr.Stages[s]
				if ns, ok := tr.StageLatency(st); ok {
					tj.Latencies[st.String()] = ns
				}
			}
			if fin := tr.FinalStage(); tr.Stages[fin] != 0 && tr.Stages[trace.StageCommit] != 0 {
				tj.E2ENs = tr.Stages[fin] - tr.Stages[trace.StageCommit]
			}
			out = append(out, tj)
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("/regions", func(w http.ResponseWriter, r *http.Request) {
		out := []regionJSON{}
		if cfg.Regions != nil {
			for _, reg := range cfg.Regions() {
				out = append(out, regionJSON{
					Low:      string(reg.Range.Low),
					High:     string(reg.Range.High),
					VLow:     uint64(reg.Low),
					VHigh:    uint64(reg.High),
					Rendered: reg.String(),
				})
			}
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("/conns", func(w http.ResponseWriter, r *http.Request) {
		out := []remote.ConnInfo{}
		if cfg.RemoteConns != nil {
			if c := cfg.RemoteConns(); c != nil {
				out = c
			}
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("/flightrec", func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if q := r.URL.Query().Get("n"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v > 0 {
				n = v
			}
		}
		recs := []flightrec.Record{}
		if tail := cfg.Flight.Tail(n); tail != nil {
			recs = tail
		}
		writeJSON(w, recs)
	})

	mux.HandleFunc("/dump", func(w http.ResponseWriter, r *http.Request) {
		if q := r.URL.Query().Get("id"); q != "" {
			id, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad id", http.StatusBadRequest)
				return
			}
			d, ok := cfg.Dumps.Dump(id)
			if !ok {
				http.NotFound(w, r)
				return
			}
			writeJSON(w, d)
			return
		}
		out := []dumpMetaJSON{}
		if cfg.Dumps != nil {
			for _, d := range cfg.Dumps.Dumps() {
				out = append(out, dumpMetaJSON{
					ID: d.ID, At: d.At, Detector: d.Detector, Reason: d.Reason,
					Records: len(d.Records), Traces: len(d.Traces), File: d.File,
				})
			}
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("/govern", func(w http.ResponseWriter, r *http.Request) {
		st := govern.Stats{Pressure: govern.Steady.String()}
		if cfg.Govern != nil {
			st = cfg.Govern()
		}
		writeJSON(w, st)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Govern == nil {
			fmt.Fprint(w, "ok (ungoverned)\n")
			return
		}
		st := cfg.Govern()
		// Evict is still healthy — the system is trimming retention within
		// its contract. Shed and Reject mean watchers are being cut loose and
		// new work refused: the probe's consumer should route around us.
		if st.Level >= int(govern.Shed) {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "shedding: pressure %s, used %d of %d budget bytes\n",
				st.Pressure, st.UsedBytes, st.BudgetBytes)
			return
		}
		fmt.Fprintf(w, "ok: pressure %s, used %d of %d budget bytes\n",
			st.Pressure, st.UsedBytes, st.BudgetBytes)
	})

	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running debug HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug server on addr (e.g. "127.0.0.1:0"); it returns as
// soon as the listener is bound, serving in the background.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
