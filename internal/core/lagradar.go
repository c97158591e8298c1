package core

import (
	"sort"
	"sync"
	"time"

	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
)

// The lag radar answers, per registered watcher, the two operational
// questions the paper's staleness discussion (§3.1) turns on: how many
// versions behind the hub's ingest frontier is this consumer, and for how
// long has it been behind? Version lag comes from comparing the watcher's
// consumed position against the hub's ingest high-water mark;
// time-behind comes from the verClock, a bounded ring of (version, instant)
// checkpoints recorded as progress raises the frontier. Both read only
// atomics and the checkpoint ring, so scraping the radar never touches the
// ingest lock or an ingest path.

// WatcherLag is one watcher's staleness snapshot.
type WatcherLag struct {
	// ID is the hub-assigned watcher id (stable for the watch's lifetime).
	ID int64 `json:"id"`
	// Range is the watched key range.
	Range keyspace.Range `json:"range"`
	// From is the version the watch started after.
	From Version `json:"from"`
	// LastSeen is the highest version the watcher has consumed, via a
	// delivered change event or an announced frontier.
	LastSeen Version `json:"last_seen"`
	// Frontier is the highest version the hub has ingested — the same
	// quantity HubStats.MaxSeen reports.
	Frontier Version `json:"frontier"`
	// VersionLag = Frontier - LastSeen (0 when caught up).
	VersionLag uint64 `json:"version_lag"`
	// TimeBehind is how long ago the hub's frontier first passed the
	// watcher's current position; 0 when caught up or when no checkpoint
	// brackets the position (e.g. progress-free workloads).
	TimeBehind time.Duration `json:"time_behind_ns"`
	// QueueDepth is the watcher's undelivered event count right now: its
	// ring's depth or its reader's unread events.
	QueueDepth int `json:"queue_depth"`
	// Delivered counts change events dispatched to the callback so far.
	Delivered int64 `json:"delivered"`
	// Lagged reports that the watcher has been resynced and is awaiting
	// recovery; its lag values describe the moment it was cut over.
	Lagged bool `json:"lagged"`
}

// verClockCap bounds the checkpoint ring; at one checkpoint per progress
// event this spans the last 512 frontier advances.
const verClockCap = 512

// verStamp is one (version, instant) checkpoint.
type verStamp struct {
	ver uint64
	at  int64 // UnixNano
}

// verClock is a bounded ring of frontier checkpoints, ascending in version.
type verClock struct {
	mu     sync.Mutex
	stamps [verClockCap]verStamp
	start  int
	n      int
}

// note records that the frontier passed ver at instant at. Non-advancing
// versions are ignored, keeping the ring strictly ascending.
func (vc *verClock) note(ver uint64, at int64) {
	if ver == 0 {
		return
	}
	vc.mu.Lock()
	if vc.n > 0 {
		last := vc.stamps[(vc.start+vc.n-1)%verClockCap]
		if ver <= last.ver {
			vc.mu.Unlock()
			return
		}
	}
	if vc.n == verClockCap {
		vc.start = (vc.start + 1) % verClockCap
		vc.n--
	}
	vc.stamps[(vc.start+vc.n)%verClockCap] = verStamp{ver: ver, at: at}
	vc.n++
	vc.mu.Unlock()
}

// firstAfter returns the instant of the earliest checkpoint with version
// strictly greater than v — the moment the frontier left v behind.
func (vc *verClock) firstAfter(v uint64) (int64, bool) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	i := sort.Search(vc.n, func(i int) bool {
		return vc.stamps[(vc.start+i)%verClockCap].ver > v
	})
	if i == vc.n {
		return 0, false
	}
	return vc.stamps[(vc.start+i)%verClockCap].at, true
}

// WatcherLags returns the lag radar: one entry per registered watcher,
// ascending by watcher id. Safe to call concurrently with ingest; values
// are per-field atomic snapshots.
func (h *Hub) WatcherLags() []WatcherLag {
	now := h.clock.Now().UnixNano()
	h.regMu.Lock()
	ws := make([]*hubWatcher, 0, len(h.watchers))
	for _, w := range h.watchers {
		ws = append(ws, w)
	}
	h.regMu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })

	out := make([]WatcherLag, 0, len(ws))
	frontier := h.maxSeen.Load()
	for _, w := range ws {
		last := w.lastSeen.Load()
		wl := WatcherLag{
			ID:         w.id,
			Range:      w.rng,
			From:       w.from,
			LastSeen:   Version(last),
			Frontier:   Version(frontier),
			QueueDepth: w.backlog(),
			Delivered:  w.nDelivered.Load(),
			Lagged:     w.lagged.Load(),
		}
		if frontier > last {
			wl.VersionLag = frontier - last
			if at, ok := h.verTimes.firstAfter(last); ok && now > at {
				wl.TimeBehind = time.Duration(now - at)
			}
		}
		out = append(out, wl)
	}
	return out
}

// registerLagGauges publishes the radar's worst-case values as scrape-time
// gauges, so a plain /metrics dump shows the most stale watcher without
// anyone polling WatcherLags. Lagged watchers are excluded: they have been
// resynced and their frozen cut-over lag would otherwise read as a
// permanently stale consumer long after the client re-established the watch.
func (h *Hub) registerLagGauges(reg *metrics.Registry) {
	reg.GaugeFunc("core_hub_watcher_version_lag_max", func() int64 {
		var max uint64
		for _, wl := range h.WatcherLags() {
			if !wl.Lagged && wl.VersionLag > max {
				max = wl.VersionLag
			}
		}
		return int64(max)
	})
	reg.GaugeFunc("core_hub_watcher_time_behind_ns_max", func() int64 {
		var max time.Duration
		for _, wl := range h.WatcherLags() {
			if !wl.Lagged && wl.TimeBehind > max {
				max = wl.TimeBehind
			}
		}
		return int64(max)
	})
}
