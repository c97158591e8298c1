package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
)

// Span names, one per layer boundary the traced pass wraps.
const (
	spCommit       uint8 = iota // mvcc: store.Commit, around the call
	spAppend                    // core: hub.AppendBatch, child of the commit
	spProgress                  // core: hub.Progress, child of the commit
	spDispatchWait              // core: AppendBatch return → hub consumer's callback
	spEnqueue                   // remote: inside the server sink's OnEventBatch
	spTransit                   // remote: sink return → client callback
	spClientWatch               // remote: Client.Watch, around the call
	spHubWatch                  // core: hub.Watch under the server
	spReplay                    // core: Watch return → last backlog batch at the sink
	spRecover                   // bench: ResyncWatcher.Start, around the call
	spClientSnap                // remote: Client.SnapshotRange, child of the recovery
	spStoreSnap                 // mvcc: SnapshotRange under the server
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"mvcc.commit", "core.append", "core.progress", "core.dispatch_wait",
	"remote.enqueue", "remote.transit", "remote.client_watch", "core.watch",
	"core.replay", "bench.recover", "remote.snapshot", "mvcc.snapshot",
}

// span is one traced interval. Spans of one request share trace: the commit
// version on the live workloads, the round number on the other two. parent
// is the id of the span that caused this one, 0 for a root.
type span struct {
	id, parent uint32
	name       uint8
	phase      uint8
	trace      uint64
	start, end int64 // ns since the harness clock's origin
}

// spanRing keeps the most recent spans in a preallocated ring, so recording
// one is an atomic add and a struct store: no allocation, no lock. Ids count
// up from 1 and the slot is the id modulo the ring size.
type spanRing struct {
	buf  []span // length is a power of two
	next atomic.Uint32
}

func newSpanRing(size int) *spanRing {
	r := &spanRing{buf: make([]span, size)}
	for i := range r.buf { // touch every page before anything is timed
		r.buf[i].id = 0
	}
	return r
}

// begin reserves a span whose end is not known yet, so that children recorded
// before it ends can name it as their parent.
func (r *spanRing) begin(name, phase uint8, trace uint64, parent uint32, start int64) uint32 {
	id := r.next.Add(1)
	r.buf[int(id-1)&(len(r.buf)-1)] = span{id: id, parent: parent, name: name, phase: phase, trace: trace, start: start}
	return id
}

func (r *spanRing) finish(id uint32, end int64) {
	if s := &r.buf[int(id-1)&(len(r.buf)-1)]; s.id == id {
		s.end = end
	}
}

func (r *spanRing) add(name, phase uint8, trace uint64, parent uint32, start, end int64) uint32 {
	id := r.begin(name, phase, trace, parent, start)
	r.finish(id, end)
	return id
}

// since copies into dst the finished spans recorded after mark (a value of
// next taken earlier) that the ring still holds, oldest first.
func (r *spanRing) since(mark uint32, dst []span) []span {
	last := r.next.Load()
	if n := uint32(len(r.buf)); last-mark > n {
		mark = last - n
	}
	dst = dst[:0]
	for id := mark + 1; id <= last; id++ {
		if s := r.buf[int(id-1)&(len(r.buf)-1)]; s.id == id && s.end != 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

// selfTimes returns, per span name, the summed self time and the span count
// of spans. A span's self time is its duration minus the part of its own
// interval that its child spans cover: children are clipped to the parent,
// and overlapping children are counted once.
func selfTimes(spans []span) (self, count [numSpanNames]int64) {
	// Children of one parent become adjacent, in start order.
	kids := make([]int, len(spans))
	for i := range kids {
		kids[i] = i
	}
	slices.SortFunc(kids, func(a, b int) int {
		sa, sb := &spans[a], &spans[b]
		if sa.parent != sb.parent {
			if sa.parent < sb.parent {
				return -1
			}
			return 1
		}
		if sa.start != sb.start {
			if sa.start < sb.start {
				return -1
			}
			return 1
		}
		return 0
	})
	for i := range spans {
		s := &spans[i]
		lo, _ := slices.BinarySearchFunc(kids, s.id, func(k int, id uint32) int {
			if p := spans[k].parent; p < id {
				return -1
			} else if p > id {
				return 1
			}
			return 0
		})
		var covered int64
		edge := s.start // everything before edge is already counted
		for j := lo; j < len(kids) && spans[kids[j]].parent == s.id; j++ {
			c := &spans[kids[j]]
			from, to := max(c.start, edge), min(c.end, s.end)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.name] += s.end - s.start - covered
		count[s.name]++
	}
	return self, count
}

// dump writes every span the ring still holds as one JSON object per line.
func (r *spanRing) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range r.since(0, make([]span, 0, len(r.buf))) {
		fmt.Fprintf(w, `{"name":%q,"trace":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"phase":%q}`+"\n",
			spanNames[s.name], s.trace, s.id, s.parent, s.start, s.end, phaseNames[s.phase])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
