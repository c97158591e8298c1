package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"unbundle/internal/cache"
	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/metrics"
	"unbundle/internal/mvcc"
	"unbundle/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E9",
		Title:  "Knowledge regions: snapshot-consistent serving and stitching (the green box)",
		Anchor: "Figure 5, §4.3",
		Run:    runE9,
	})
}

// runE9 drives watchers whose progress arrives at different cadences per
// range (skewed frontiers, as in Figure 5), then issues multi-range queries:
// how often can a consistent version be stitched, and is every served stitch
// exactly a source snapshot? It also merges two pods' knowledge to serve a
// query neither could alone.
func runE9(opts Options) (*Result, error) {
	e, _ := Get("E9")
	return run(e, opts, func(res *Result) error {
		nKeys := opts.pick(200, 1000)
		updates := opts.pick(2000, 20000)
		queries := opts.pick(300, 2000)

		store := mvcc.NewStore()
		hub := core.NewHub(core.HubConfig{Retention: 1 << 18, WatcherBuffer: 1 << 18})
		defer hub.Close()
		// Progress cadence skew: each quarter of the keyspace reports
		// progress at its own rate (1, 4, 16, 64 commits).
		shards := keyspace.EvenSplit(nKeys, 4)
		cadences := []int{1, 4, 16, 64}
		for i, shard := range shards {
			detach := store.AttachCDC(shard, &cadencedIngester{ing: hub, every: cadences[i]})
			defer detach()
		}

		pod := cache.NewWatchPod("p0", store, hub)
		defer pod.Stop()
		if err := pod.SetRanges([]keyspace.Range{keyspace.Full()}); err != nil {
			return err
		}

		rng := rand.New(rand.NewSource(opts.Seed))
		stream := workload.NewUpdateStream(workload.NewUniformKeys(opts.Seed, nKeys))
		stitchable, verified, mismatches := 0, 0, 0
		queriesDone := 0
		for i := 0; i < updates; i++ {
			k, v := stream.Next()
			store.Put(k, v)
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond) // writer pacing: let the watch pipeline run
			}
			if queriesDone < queries && i%(updates/queries+1) == 0 {
				// A query spanning two random shards.
				a, b := rng.Intn(4), rng.Intn(4)
				ra := subRange(shards[a], rng)
				rb := subRange(shards[b], rng)
				queriesDone++
				v, ok := pod.StitchVersion(ra, rb)
				if !ok || v == core.NoVersion {
					// No common version yet (or only the vacuous pre-write
					// version 0): not servable.
					continue
				}
				stitchable++
				// Verify every stitched read against the store oracle.
				for _, r := range []keyspace.Range{ra, rb} {
					served, okSnap := pod.SnapshotAt(r, v)
					if !okSnap {
						mismatches++
						continue
					}
					truth, err := store.Scan(r, v, 0)
					if err != nil {
						return err
					}
					if !entriesEqual(served, truth) {
						mismatches++
					} else {
						verified++
					}
				}
			}
		}

		// Merged knowledge across two pods (§4.3: combine regions across
		// watchers). Each pod owns half; the union serves cross-half queries.
		podA := cache.NewWatchPod("pa", store, hub)
		defer podA.Stop()
		podB := cache.NewWatchPod("pb", store, hub)
		defer podB.Stop()
		half := keyspace.NumericRange(0, nKeys/2)
		otherHalf := keyspace.Range{Low: keyspace.NumericKey(nKeys / 2), High: keyspace.Inf}
		if err := podA.SetRanges([]keyspace.Range{half}); err != nil {
			return err
		}
		if err := podB.SetRanges([]keyspace.Range{otherHalf}); err != nil {
			return err
		}
		store.EmitProgress(keyspace.Full())
		crossQuery := []keyspace.Range{
			keyspace.NumericRange(10, 20),
			keyspace.NumericRange(nKeys/2+10, nKeys/2+20),
		}
		merged := func() bool {
			ka := core.NewKnowledgeSet()
			for _, reg := range podA.Knowledge() {
				ka.AddSnapshot(reg.Range, reg.Low)
				ka.ExtendTo(reg.Range, reg.High)
			}
			kb := core.NewKnowledgeSet()
			for _, reg := range podB.Knowledge() {
				kb.AddSnapshot(reg.Range, reg.Low)
				kb.ExtendTo(reg.Range, reg.High)
			}
			_, ok := ka.Union(kb).StitchVersion(crossQuery...)
			return ok
		}
		if err := settle("merged knowledge to serve the cross-half query", merged); err != nil {
			return err
		}
		mergedOK := merged()
		_, aAlone := coreStitch(podA, crossQuery)
		_, bAlone := coreStitch(podB, crossQuery)

		tbl := metrics.NewTable("E9 — stitching snapshot-consistent views from knowledge regions",
			"metric", "value")
		tbl.AddRow("multi-range queries issued", queriesDone)
		tbl.AddRow("stitchable (version found)", stitchable)
		tbl.AddRow("stitched reads verified against store snapshot", verified)
		tbl.AddRow("verification mismatches", mismatches)
		tbl.AddRow("single-pod serves cross-half query", fmt.Sprintf("podA=%v podB=%v", aAlone, bAlone))
		tbl.AddRow("merged knowledge serves it", mergedOK)
		tbl.AddNote("progress cadences per quarter: 1/4/16/64 commits — skewed frontiers like Figure 5's staircase")
		res.Table = tbl

		res.check("a useful fraction of queries is stitchable despite skew",
			stitchable > queriesDone/10, "%d of %d", stitchable, queriesDone)
		res.check("every stitched read is exactly a source snapshot",
			mismatches == 0 && verified > 0, "%d verified, %d mismatches", verified, mismatches)
		res.check("cross-pod queries need merged knowledge",
			!aAlone && !bAlone && mergedOK, "alone: %v/%v, merged: %v", aAlone, bAlone, mergedOK)
		return nil
	})
}

// cadencedIngester forwards all events but only every n-th progress mark,
// creating the skewed frontier.
type cadencedIngester struct {
	ing   core.Ingester
	every int
	n     int
}

func (c *cadencedIngester) Append(ev core.ChangeEvent) error { return c.ing.Append(ev) }

func (c *cadencedIngester) AppendBatch(evs []core.ChangeEvent) error {
	return c.ing.AppendBatch(evs)
}

func (c *cadencedIngester) Progress(p core.ProgressEvent) error {
	c.n++
	if c.n%c.every != 0 {
		return nil
	}
	return c.ing.Progress(p)
}

func subRange(r keyspace.Range, rng *rand.Rand) keyspace.Range {
	// A small numeric sub-range inside r (shards are numeric-aligned).
	lo := r.Low
	if lo == "" {
		lo = keyspace.NumericKey(0)
	}
	var loN int
	fmt.Sscanf(string(lo), "%d", &loN)
	start := loN + rng.Intn(50)
	return keyspace.NumericRange(start, start+5)
}

func coreStitch(pod *cache.WatchPod, ranges []keyspace.Range) (core.Version, bool) {
	return pod.StitchVersion(ranges...)
}

func entriesEqual(a, b []core.Entry) bool {
	am := map[keyspace.Key]string{}
	for _, e := range a {
		am[e.Key] = string(e.Value)
	}
	if len(am) != len(b) {
		return false
	}
	for _, e := range b {
		if am[e.Key] != string(e.Value) {
			return false
		}
	}
	return true
}
