package cache

import (
	"fmt"
	"testing"
	"time"

	"unbundle/internal/clockwork"
	"unbundle/internal/core"
	"unbundle/internal/keyspace"
	"unbundle/internal/mvcc"
	"unbundle/internal/sharder"
	"unbundle/internal/workload"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPodBasics(t *testing.T) {
	clock := clockwork.NewFake()
	p := NewPod("p0")
	now := clock.Now()
	if _, ok := p.Get("k", now, 0); ok {
		t.Fatal("empty pod hit")
	}
	p.Put("k", Entry{Value: []byte("v"), StoredAt: now})
	if e, ok := p.Get("k", now, 0); !ok || string(e.Value) != "v" {
		t.Fatalf("get = %+v %v", e, ok)
	}
	// TTL expiry.
	clock.Advance(time.Minute)
	if _, ok := p.Get("k", clock.Now(), 30*time.Second); ok {
		t.Fatal("expired entry served")
	}
	st := p.Stats()
	if st.TTLExpiries != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	p.Put("a", Entry{})
	p.Put("b", Entry{})
	p.DropRange(keyspace.Range{Low: "a", High: "b"})
	if _, ok := p.Get("a", now, 0); ok {
		t.Fatal("dropped entry served")
	}
	if _, ok := p.Get("b", now, 0); !ok {
		t.Fatal("out-of-range entry dropped")
	}
}

// TestFigure2Race reproduces the paper's Figure 2 deterministically: the
// invalidation for x is acknowledged by p_old because the pubsub router's
// view of the auto-sharder lags, so p_new caches a stale value forever.
func TestFigure2Race(t *testing.T) {
	clock := clockwork.NewFake()
	c, err := NewPubSubCluster(PubSubConfig{
		Clock:         clock,
		Mode:          ModeRouted,
		Pods:          []sharder.Pod{"p0", "p1"},
		RouterLag:     time.Second,
		InitialShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle := NewOracle(c.Store())

	// Let the router learn the initial table.
	clock.Advance(time.Second)
	waitUntil(t, "router init", func() bool { return c.RouterGeneration() >= 1 })

	x := keyspace.NumericKey(100)
	c.Update(x, workload.Value(x, 1))
	clock.Advance(10 * time.Millisecond)
	c.Pump() // v1 invalidation lands wherever; nothing cached yet

	pOld := c.Sharder().Owner(x)
	pNew := sharder.Pod("p1")
	if pOld == pNew {
		pNew = "p0"
	}
	// p_old serves and caches x.
	if res, _ := c.Read(x); res.Pod != pOld {
		t.Fatalf("setup: read served by %q, want %q", res.Pod, pOld)
	}

	// The auto-sharder moves x to p_new; p_new immediately serves (fetches
	// the current value v1); the router still routes to p_old.
	target := keyspace.NumericRange(100, 101)
	if err := c.Sharder().MoveRange(target, pNew); err != nil {
		t.Fatal(err)
	}
	res, _ := c.Read(x) // p_new fetches v1 and caches it
	if res.Pod != pNew || res.CacheHit {
		t.Fatalf("post-move read = %+v", res)
	}

	// The write races with the handoff: x updates to v2, the invalidation is
	// published, and the router — still on the old table — delivers it to
	// p_old, which acknowledges it into the void.
	c.Update(x, workload.Value(x, 2))
	c.Pump()

	// The router eventually catches up; too late.
	clock.Advance(2 * time.Second)
	waitUntil(t, "router catchup", func() bool { return c.RouterGeneration() >= 2 })
	c.Pump()

	// p_new still serves v1 — permanently stale.
	res, _ = c.Read(x)
	if !res.CacheHit || res.Pod != pNew {
		t.Fatalf("final read = %+v", res)
	}
	if oracle.ScoreRead(x, res.Value) {
		t.Fatal("read was fresh; the race did not reproduce")
	}
	stale, checked := oracle.SweepPubSub(c)
	if stale == 0 || checked == 0 {
		t.Fatalf("sweep found %d/%d stale", stale, checked)
	}
	if st := oracle.Stats(); st.StaleReads != 1 {
		t.Fatalf("oracle stats = %+v", st)
	}
}

// TestFigure2LeaseClosesRace: with leases, the invalidation is requeued
// until the new owner is active, so no stale entry survives — but reads
// during the lease window fall back to the store (the availability price).
func TestFigure2LeaseClosesRace(t *testing.T) {
	clock := clockwork.NewFake()
	c, err := NewPubSubCluster(PubSubConfig{
		Clock:         clock,
		Mode:          ModeLease,
		Pods:          []sharder.Pod{"p0", "p1"},
		RouterLag:     time.Second,
		LeaseDuration: 5 * time.Second,
		InitialShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle := NewOracle(c.Store())

	x := keyspace.NumericKey(100)
	c.Update(x, workload.Value(x, 1))
	c.Pump()
	pOld := c.Sharder().Owner(x)
	pNew := sharder.Pod("p1")
	if pOld == pNew {
		pNew = "p0"
	}
	c.Read(x)

	if err := c.Sharder().MoveRange(keyspace.NumericRange(100, 101), pNew); err != nil {
		t.Fatal(err)
	}
	// During the lease window, reads are unavailable (store fallback).
	res, _ := c.Read(x)
	if !res.Unavailable {
		t.Fatalf("read during lease window = %+v, want unavailable", res)
	}
	// The racing update's invalidation cannot be acknowledged yet.
	c.Update(x, workload.Value(x, 2))
	c.Pump()
	if st := c.Stats(); st.Requeued == 0 {
		t.Fatalf("invalidation was not requeued: %+v", st)
	}
	// Lease matures; the requeued invalidation delivers to p_new.
	clock.Advance(6 * time.Second)
	c.Pump()
	res, _ = c.Read(x) // p_new fetches fresh v2
	if res.Unavailable {
		t.Fatal("still unavailable after lease")
	}
	if !oracle.ScoreRead(x, res.Value) {
		t.Fatal("lease mode served stale data")
	}
	stale, _ := oracle.SweepPubSub(c)
	if stale != 0 {
		t.Fatalf("stale entries with leases: %d", stale)
	}
	if c.Stats().Unavailable == 0 {
		t.Fatal("lease mode reported no unavailability — the tradeoff vanished")
	}
}

// TestFanoutAvoidsRaceAtFullCost: free-consumer fanout invalidates
// everywhere, so the moved entry is fixed — but every pod pays for every
// message.
func TestFanoutAvoidsRaceAtFullCost(t *testing.T) {
	clock := clockwork.NewFake()
	c, err := NewPubSubCluster(PubSubConfig{
		Clock:         clock,
		Mode:          ModeFanout,
		Pods:          []sharder.Pod{"p0", "p1", "p2", "p3"},
		InitialShards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oracle := NewOracle(c.Store())

	x := keyspace.NumericKey(100)
	c.Update(x, workload.Value(x, 1))
	c.Pump()
	pOld := c.Sharder().Owner(x)
	c.Read(x)
	pNew := sharder.Pod("p0")
	if pOld == pNew {
		pNew = "p1"
	}
	c.Sharder().MoveRange(keyspace.NumericRange(100, 101), pNew)
	c.Read(x) // p_new caches v1
	c.Update(x, workload.Value(x, 2))
	c.Pump() // fanout reaches p_new too

	res, _ := c.Read(x)
	if !oracle.ScoreRead(x, res.Value) {
		t.Fatal("fanout served stale data")
	}
	// Cost: 2 updates × 4 pods-worth of deliveries (each pod consumed both
	// messages).
	if st := c.Stats(); st.PodMessages != 8 {
		t.Fatalf("pod messages = %d, want 8 (every pod pays for every message)", st.PodMessages)
	}
}

// TestWatchClusterConvergesThroughHandoff: the same Figure 2 schedule on the
// watch cluster produces a fresh read — the new owner's knowledge comes from
// the store and the range watch, not from a racing router.
func TestWatchClusterConvergesThroughHandoff(t *testing.T) {
	c := NewWatchCluster(WatchConfig{
		Pods:          []sharder.Pod{"p0", "p1"},
		InitialShards: 2,
	})
	defer c.Close()
	oracle := NewOracle(c.Store())

	x := keyspace.NumericKey(100)
	c.Update(x, workload.Value(x, 1))
	pOld := c.Sharder().Owner(x)
	pNew := sharder.Pod("p1")
	if pOld == pNew {
		pNew = "p0"
	}
	waitUntil(t, "initial coverage", func() bool { return c.Pods()[pOld].Covers(x) })
	if res, _ := c.Read(x); !res.CacheHit {
		t.Fatalf("owner did not serve from knowledge")
	}

	if err := c.Sharder().MoveRange(keyspace.NumericRange(100, 101), pNew); err != nil {
		t.Fatal(err)
	}
	// The racing update lands mid-handoff.
	c.Update(x, workload.Value(x, 2))
	waitUntil(t, "new owner coverage", func() bool { return c.Pods()[pNew].Covers(x) })
	waitUntil(t, "fresh value propagated", func() bool {
		res, _ := c.Read(x)
		return string(res.Value) == string(workload.Value(x, 2))
	})
	res, _ := c.Read(x)
	if !oracle.ScoreRead(x, res.Value) {
		t.Fatal("watch cluster served stale data")
	}
	stale, checked := oracle.SweepWatch(c)
	if stale != 0 {
		t.Fatalf("stale entries: %d/%d", stale, checked)
	}
	// The old owner dropped its copy.
	waitUntil(t, "old owner dropped range", func() bool { return !c.Pods()[pOld].Covers(x) })
}

// TestWatchClusterSurvivesHubWipe: destroying the watch system's soft state
// costs a resync, not correctness.
func TestWatchClusterSurvivesHubWipe(t *testing.T) {
	c := NewWatchCluster(WatchConfig{
		Pods:          []sharder.Pod{"p0"},
		InitialShards: 1,
	})
	defer c.Close()
	oracle := NewOracle(c.Store())

	x := keyspace.NumericKey(5)
	c.Update(x, workload.Value(x, 1))
	waitUntil(t, "coverage", func() bool { return c.Pods()["p0"].Covers(x) })

	c.Hub().Wipe()
	c.Update(x, workload.Value(x, 2))
	waitUntil(t, "recovered freshness", func() bool {
		res, _ := c.Read(x)
		return oracleFresh(oracle, x, res.Value)
	})
	if c.Pods()["p0"].Resyncs() == 0 {
		t.Fatal("wipe did not resync the pod")
	}
}

func oracleFresh(o *Oracle, k keyspace.Key, served []byte) bool {
	// ScoreRead mutates counters; use a throwaway comparison for polling.
	want, _, ok, _ := o.store.Get(k, 0)
	return ok && string(want) == string(served)
}

func TestWatchPodSnapshotServing(t *testing.T) {
	c := NewWatchCluster(WatchConfig{Pods: []sharder.Pod{"p0"}, InitialShards: 1})
	defer c.Close()

	a, b := keyspace.NumericKey(10), keyspace.NumericKey(20)
	c.Update(a, []byte("a1"))
	c.Update(b, []byte("b1"))
	pod := c.Pods()["p0"]
	waitUntil(t, "coverage", func() bool { return pod.Covers(a) && pod.Covers(b) })

	v, ok := pod.StitchVersion(keyspace.Point(a), keyspace.Point(b))
	if !ok {
		t.Fatalf("stitch failed: %v", pod.Knowledge())
	}
	waitUntil(t, "frontier catches writes", func() bool {
		v2, ok2 := pod.StitchVersion(keyspace.Point(a), keyspace.Point(b))
		return ok2 && v2 >= 2
	})
	v, _ = pod.StitchVersion(keyspace.Point(a), keyspace.Point(b))
	val, ok, served := pod.GetAt(a, v)
	if !served || !ok || string(val) != "a1" {
		t.Fatalf("GetAt = %q/%v/%v", val, ok, served)
	}
	entries, ok := pod.SnapshotAt(keyspace.NumericRange(0, 100), v)
	if !ok || len(entries) != 2 {
		t.Fatalf("SnapshotAt = %v ok=%v", entries, ok)
	}
	// Update a; old snapshot at v still serves a1 (immutability).
	c.Update(a, []byte("a2"))
	waitUntil(t, "new version arrives", func() bool {
		latest, _, ok2, served := pod.GetLatest(a)
		return ok2 && served && string(latest) == "a2"
	})
	valOld, okOld, _ := pod.GetAt(a, v)
	if !okOld || string(valOld) != "a1" {
		t.Fatalf("knowledge region mutated: %q", valOld)
	}
}

func TestWatchPodPrune(t *testing.T) {
	c := NewWatchCluster(WatchConfig{Pods: []sharder.Pod{"p0"}, InitialShards: 1})
	defer c.Close()
	x := keyspace.NumericKey(1)
	c.Update(x, []byte("v1"))
	c.Update(x, []byte("v2"))
	c.Update(x, []byte("v3"))
	pod := c.Pods()["p0"]
	// The premise is that version 3 is inside the pod's knowledge window,
	// not merely that v3 arrived: progress can trail the event, and pruning
	// below 3 then rightly drops a window that does not reach 3.
	waitUntil(t, "v3 servable at version 3", func() bool {
		v, ok, served := pod.GetAt(x, 3)
		return ok && served && string(v) == "v3"
	})
	pod.PruneBelow(keyspace.Full(), 3)
	if _, ok, served := pod.GetAt(x, 1); ok && served {
		t.Fatal("pruned version still servable")
	}
	if v, _, ok, _ := pod.GetLatest(x); !ok || string(v) != "v3" {
		t.Fatal("latest lost by pruning")
	}
}

// TestQuerySnapshotStitchesAcrossPods: a multi-range query spanning pods is
// served at one consistent version, verified against the store oracle.
func TestQuerySnapshotStitchesAcrossPods(t *testing.T) {
	c := NewWatchCluster(WatchConfig{
		Pods:          []sharder.Pod{"p0", "p1", "p2", "p3"},
		InitialShards: 4,
	})
	defer c.Close()
	for i := 0; i < 200; i++ {
		k := keyspace.NumericKey(i * 20) // spread over all shards
		c.Update(k, workload.Value(k, 1))
	}
	q1 := keyspace.NumericRange(0, 100)     // pod of shard 0
	q2 := keyspace.NumericRange(3000, 3100) // a different pod
	waitUntil(t, "stitchable", func() bool {
		_, _, ok := c.QuerySnapshot(q1, q2)
		return ok
	})
	v, entries, ok := c.QuerySnapshot(q1, q2)
	if !ok {
		t.Fatal("query not servable")
	}
	// Verify against the store at exactly v.
	var want []core.Entry
	for _, r := range []keyspace.Range{q1, q2} {
		es, err := c.Store().Scan(r, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, es...)
	}
	got := map[keyspace.Key]string{}
	for _, e := range entries {
		got[e.Key] = string(e.Value)
	}
	if len(got) != len(want) {
		t.Fatalf("stitched %d entries, store has %d at %v", len(got), len(want), v)
	}
	for _, e := range want {
		if got[e.Key] != string(e.Value) {
			t.Fatalf("stitched %q=%q, store %q", e.Key, got[e.Key], e.Value)
		}
	}
}

// TestQuerySnapshotConsistentUnderWrites: while writes keep flowing, every
// successful stitched query must still equal the store at its version —
// never a torn mixture.
func TestQuerySnapshotConsistentUnderWrites(t *testing.T) {
	c := NewWatchCluster(WatchConfig{
		Pods:          []sharder.Pod{"p0", "p1"},
		InitialShards: 2,
	})
	defer c.Close()
	a, b := keyspace.NumericKey(100), keyspace.NumericKey(1500) // different shards
	// Let the pods establish knowledge before querying.
	c.Update(a, []byte("a0"))
	c.Update(b, []byte("b0"))
	waitUntil(t, "coverage", func() bool {
		_, _, ok := c.QuerySnapshot(keyspace.Point(a), keyspace.Point(b))
		return ok
	})
	served := 0
	for i := 1; i <= 100; i++ {
		time.Sleep(200 * time.Microsecond) // writer pacing
		// A cross-shard transaction: both keys move together.
		c.Store().Commit(func(tx *mvcc.Tx) error {
			tx.Put(a, []byte(fmt.Sprintf("a%d", i)))
			tx.Put(b, []byte(fmt.Sprintf("b%d", i)))
			return nil
		})
		v, entries, ok := c.QuerySnapshot(keyspace.Point(a), keyspace.Point(b))
		if !ok {
			continue
		}
		served++
		vals := map[keyspace.Key]string{}
		for _, e := range entries {
			vals[e.Key] = string(e.Value)
		}
		// Both values must come from the same committed transaction.
		wantA, _, okA, _ := c.Store().Get(a, v)
		wantB, _, okB, _ := c.Store().Get(b, v)
		if okA != (vals[a] != "") || okB != (vals[b] != "") ||
			vals[a] != string(wantA) || vals[b] != string(wantB) {
			t.Fatalf("iteration %d: torn snapshot at %v: %v (want %q/%q)", i, v, vals, wantA, wantB)
		}
		if vals[a] != "" && vals[b] != "" && vals[a][1:] != vals[b][1:] {
			t.Fatalf("iteration %d: cross-shard tear: %q vs %q", i, vals[a], vals[b])
		}
	}
	if served == 0 {
		t.Fatal("no query was ever servable")
	}
}

// TestReadAtLeastSessionConsistency: a client that just wrote at version v
// never observes an older value through the cache, even mid-propagation.
func TestReadAtLeastSessionConsistency(t *testing.T) {
	c := NewWatchCluster(WatchConfig{Pods: []sharder.Pod{"p0"}, InitialShards: 1})
	defer c.Close()
	k := keyspace.NumericKey(7)
	c.Update(k, []byte("v0"))
	waitUntil(t, "coverage", func() bool { return c.Pods()["p0"].Covers(k) })

	for i := 1; i <= 200; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		v := c.Store().Put(k, want) // the client's own write at version v
		res, err := c.ReadAtLeast(k, v)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Value) != string(want) {
			t.Fatalf("iteration %d: read-your-writes violated: %q (wrote %q)", i, res.Value, want)
		}
	}
	// Plain GetAtLeast refuses to serve beyond its frontier.
	pod := c.Pods()["p0"]
	future := c.Store().CurrentVersion() + 100
	if _, _, served := pod.GetAtLeast(k, future); served {
		t.Fatal("pod claimed freshness it cannot have")
	}
}
