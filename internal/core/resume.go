package core

import "sync/atomic"

// ResumePoint tracks the highest version a watch stream has supplied —
// delivered change events and progress frontiers both advance it — so a
// broken transport can re-establish the watch exactly where delivery
// stopped. Resuming from Version() cannot duplicate (every delivered event
// had a version at or below it, and a watch from v supplies only events
// above v); the watch system's own retention check then decides whether the
// gap since then is still coverable, lagging the watcher out with a resync
// if it is not. This is the client half of the paper's recovery contract:
// the resume point says where delivery provably reached, the resync says
// when that point has fallen off the retained window. The hub keeps the
// server half cheap even when many points resume at once: re-registering a
// watch pins sealed retention segments by reference and replays them off
// the ingest locks, so a reconnect storm costs O(segments) lock work per
// watch, not O(backlog) (`go run ./bench`'s catchup_tcp measures the storm).
//
// All methods are safe for concurrent use; advancement is monotonic (a
// stale note never moves the point backward). Reset is the one exception —
// it reinitializes the point to the watch's starting version and must not
// race with notes.
type ResumePoint struct {
	v atomic.Uint64
}

// Reset initializes the point to the watch's starting version.
func (r *ResumePoint) Reset(v Version) { r.v.Store(uint64(v)) }

// NoteEvent records a delivered change event.
func (r *ResumePoint) NoteEvent(ev ChangeEvent) { r.advance(ev.Version) }

// NoteProgress records a delivered progress frontier: every event up to and
// including its version has been supplied, so the stream may resume past it.
func (r *ResumePoint) NoteProgress(p ProgressEvent) { r.advance(p.Version) }

// Version returns the version to resume the watch from.
func (r *ResumePoint) Version() Version { return Version(r.v.Load()) }

func (r *ResumePoint) advance(v Version) {
	for {
		cur := r.v.Load()
		if uint64(v) <= cur || r.v.CompareAndSwap(cur, uint64(v)) {
			return
		}
	}
}
