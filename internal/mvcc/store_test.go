package mvcc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

func TestPutGetLatest(t *testing.T) {
	s := NewStore()
	v1 := s.Put("a", []byte("1"))
	v2 := s.Put("a", []byte("2"))
	if v2 <= v1 {
		t.Fatalf("versions not monotonic: %v then %v", v1, v2)
	}
	val, ver, ok, err := s.Get("a", core.NoVersion)
	if err != nil || !ok || string(val) != "2" || ver != v2 {
		t.Fatalf("Get latest = %q/%v/%v/%v", val, ver, ok, err)
	}
	if _, _, ok, _ := s.Get("missing", core.NoVersion); ok {
		t.Fatal("missing key reported present")
	}
}

func TestSnapshotReadsAreStable(t *testing.T) {
	s := NewStore()
	v1 := s.Put("a", []byte("1"))
	s.Put("a", []byte("2"))
	s.Delete("a")

	val, _, ok, err := s.Get("a", v1)
	if err != nil || !ok || string(val) != "1" {
		t.Fatalf("read at v1 = %q/%v/%v", val, ok, err)
	}
	if _, _, ok, _ := s.Get("a", core.NoVersion); ok {
		t.Fatal("deleted key visible at latest")
	}
}

func TestTransactionAtomicity(t *testing.T) {
	s := NewStore()
	v, err := s.Commit(func(tx *Tx) error {
		tx.Put("x", []byte("1"))
		tx.Put("y", []byte("1"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both writes share one version.
	_, vx, _, _ := s.Get("x", core.NoVersion)
	_, vy, _, _ := s.Get("y", core.NoVersion)
	if vx != v || vy != v {
		t.Fatalf("writes split versions: %v %v (commit %v)", vx, vy, v)
	}
	// Abort leaves no trace.
	boom := errors.New("boom")
	if _, err := s.Commit(func(tx *Tx) error {
		tx.Put("x", []byte("2"))
		return boom
	}); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("abort err = %v", err)
	}
	val, _, _, _ := s.Get("x", core.NoVersion)
	if string(val) != "1" {
		t.Fatalf("aborted write visible: %q", val)
	}
}

func TestTxnReadYourWrites(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("old"))
	_, err := s.Commit(func(tx *Tx) error {
		if v, ok := tx.Get("k"); !ok || string(v) != "old" {
			return fmt.Errorf("committed value invisible: %q/%v", v, ok)
		}
		tx.Put("k", []byte("new"))
		if v, _ := tx.Get("k"); string(v) != "new" {
			return fmt.Errorf("own write invisible")
		}
		tx.Delete("k")
		if _, ok := tx.Get("k"); ok {
			return fmt.Errorf("own delete invisible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := s.Get("k", core.NoVersion); ok {
		t.Fatal("delete did not commit")
	}
}

// TestTxnReadYourWritesManyKeys: a transaction of many keys finds each of
// its own writes and re-writes; an aborted one leaves nothing in the next.
func TestTxnReadYourWritesManyKeys(t *testing.T) {
	s := NewStore()
	const n = 48
	key := func(i int) keyspace.Key { return keyspace.NumericKey(i) }
	_, err := s.Commit(func(tx *Tx) error {
		for i := range n {
			tx.Put(key(i), []byte{byte(i)})
			tx.Put(key(i/2), []byte{byte(i / 2), 1}) // a re-write of an earlier key
			for j := range i + 1 {
				want := []byte{byte(j), 1}
				if j > i/2 {
					want = want[:1]
				}
				if v, ok := tx.Get(key(j)); !ok || !bytes.Equal(v, want) {
					return fmt.Errorf("after %d writes: Get(%d) = %v/%v, want %v", i+1, j, v, ok, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Keys != n || st.VersionsHeld != n {
		t.Fatalf("committed %d keys in %d versions, want %d", st.Keys, st.VersionsHeld, n)
	}
	s.Commit(func(tx *Tx) error {
		for i := range n {
			tx.Put(key(n+i), nil)
		}
		return errors.New("abort")
	})
	s.Commit(func(tx *Tx) error {
		for i := range n {
			tx.Put(key(2*n+i), nil)
		}
		for i := range n {
			if _, ok := tx.Get(key(2*n + i)); !ok {
				t.Errorf("own write %d invisible after an aborted transaction", i)
			}
		}
		if _, ok := tx.Get(key(n + 1)); ok {
			t.Error("an aborted transaction's write is visible to the next")
		}
		return nil
	})
}

func TestScanOrderAndSnapshot(t *testing.T) {
	s := NewStore()
	for _, i := range []int{5, 1, 9, 3, 7} {
		s.Put(keyspace.NumericKey(i), []byte{byte(i)})
	}
	atV := s.CurrentVersion()
	s.Put(keyspace.NumericKey(4), []byte{4})
	s.Delete(keyspace.NumericKey(3))

	entries, err := s.Scan(keyspace.NumericRange(0, 8), atV, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5, 7}
	if len(entries) != len(want) {
		t.Fatalf("scan = %v", entries)
	}
	for i, e := range entries {
		if e.Key != keyspace.NumericKey(want[i]) {
			t.Fatalf("scan[%d] = %q, want %d", i, string(e.Key), want[i])
		}
	}
	// Latest scan sees the new world.
	latest, _ := s.Scan(keyspace.NumericRange(0, 8), core.NoVersion, 0)
	keys := map[keyspace.Key]bool{}
	for _, e := range latest {
		keys[e.Key] = true
	}
	if keys[keyspace.NumericKey(3)] || !keys[keyspace.NumericKey(4)] {
		t.Fatalf("latest scan wrong: %v", latest)
	}
	// Limit.
	lim, _ := s.Scan(keyspace.Full(), core.NoVersion, 2)
	if len(lim) != 2 {
		t.Fatalf("limit ignored: %v", lim)
	}
}

func TestSnapshotRange(t *testing.T) {
	s := NewStore()
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	entries, at, err := s.SnapshotRange(keyspace.Full())
	if err != nil || at != s.CurrentVersion() || len(entries) != 2 {
		t.Fatalf("snapshot = %v @%v err=%v", entries, at, err)
	}
}

func TestGCBeforeHorizon(t *testing.T) {
	s := NewStore()
	v1 := s.Put("a", []byte("1"))
	v2 := s.Put("a", []byte("2"))
	v3 := s.Put("a", []byte("3"))
	held, _, _, _ := s.Get("a", v1)
	s.GCBefore(v2)

	// The chain is cut behind the newest record at or below the horizon, in
	// place, and a value read before the cut still reads as it did.
	head := s.keys.find("a")
	if head.version != v3 || head.prev.version != v2 || head.prev.prev != nil {
		t.Fatalf("chain after GC: %v -> %+v", head.version, head.prev)
	}
	if string(held) != "1" {
		t.Fatalf("value read before GC = %q", held)
	}

	if _, _, _, err := s.Get("a", v1); !errors.Is(err, ErrVersionGCed) {
		t.Fatalf("read below horizon = %v", err)
	}
	val, _, ok, err := s.Get("a", v2)
	if err != nil || !ok || string(val) != "2" {
		t.Fatalf("read at horizon = %q/%v/%v", val, ok, err)
	}
	val, _, _, _ = s.Get("a", v3)
	if string(val) != "3" {
		t.Fatal("latest lost after GC")
	}
	st := s.Stats()
	if st.VersionsHeld != 2 || st.Horizon != v2 {
		t.Fatalf("stats after GC = %+v", st)
	}
	// GC never moves backwards and clamps to current version.
	s.GCBefore(v1)
	if s.Stats().Horizon != v2 {
		t.Fatal("horizon moved backwards")
	}
	s.GCBefore(v3 + 100)
	if s.Stats().Horizon != v3 {
		t.Fatal("horizon beyond current version")
	}
}

func TestGCDropsStaleTombstones(t *testing.T) {
	s := NewStore()
	s.Put("a", []byte("1"))
	vdel := s.Delete("a")
	s.Put("b", []byte("keep")) // unrelated live key
	s.GCBefore(vdel + 1)
	st := s.Stats()
	// "a" should hold zero versions now: its tombstone predates the horizon.
	if st.VersionsHeld != 1 {
		t.Fatalf("VersionsHeld = %d, want 1 (only b)", st.VersionsHeld)
	}
	if _, _, ok, err := s.Get("a", core.NoVersion); ok || err != nil {
		t.Fatalf("gc'd tombstone readable: ok=%v err=%v", ok, err)
	}
}

func TestValueAtOracle(t *testing.T) {
	s := NewStore()
	v1 := s.Put("k", []byte("1"))
	v2 := s.Delete("k")
	v3 := s.Put("k", []byte("3"))

	cases := []struct {
		at   core.Version
		want string
		ok   bool
	}{
		{v1, "1", true}, {v2, "", false}, {v3, "3", true}, {v1 - 1, "", false},
	}
	for _, c := range cases {
		val, ok, err := s.ValueAt("k", c.at)
		if err != nil || ok != c.ok || (ok && string(val) != c.want) {
			t.Errorf("ValueAt(%v) = %q/%v/%v, want %q/%v", c.at, val, ok, err, c.want, c.ok)
		}
	}
}

func TestCDCTapOrderingAndProgress(t *testing.T) {
	s := NewStore()
	var mu sync.Mutex
	var events []core.ChangeEvent
	var progress []core.ProgressEvent
	detach := s.AttachCDC(keyspace.Full(), ingesterFuncs{
		append: func(ev core.ChangeEvent) error {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			return nil
		},
		progress: func(p core.ProgressEvent) error {
			mu.Lock()
			progress = append(progress, p)
			mu.Unlock()
			return nil
		},
	})
	s.Put("a", []byte("1"))
	s.Commit(func(tx *Tx) error {
		tx.Put("b", []byte("2"))
		tx.Delete("a")
		return nil
	})
	detach()
	s.Put("c", []byte("after detach"))

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Fatalf("events = %v", events)
	}
	if events[1].Key != "b" || events[2].Key != "a" || events[2].Mut.Op != core.OpDelete {
		t.Fatalf("txn events wrong: %v", events)
	}
	if events[1].Version != events[2].Version {
		t.Fatal("txn events must share the commit version")
	}
	// Versions never decrease in the feed.
	for i := 1; i < len(events); i++ {
		if events[i].Version < events[i-1].Version {
			t.Fatal("CDC versions regressed")
		}
	}
	// Progress after each commit, at the commit version.
	if len(progress) != 2 || progress[1].Version != events[2].Version {
		t.Fatalf("progress = %v", progress)
	}
}

func TestCDCRangeScoped(t *testing.T) {
	s := NewStore()
	var mu sync.Mutex
	var events []core.ChangeEvent
	s.AttachCDC(keyspace.NumericRange(0, 10), ingesterFuncs{
		append: func(ev core.ChangeEvent) error {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			return nil
		},
		progress: func(core.ProgressEvent) error { return nil },
	})
	s.Put(keyspace.NumericKey(5), []byte("in"))
	s.Put(keyspace.NumericKey(50), []byte("out"))
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 || events[0].Key != keyspace.NumericKey(5) {
		t.Fatalf("range tap leaked: %v", events)
	}
}

func TestEmitProgressAdvancesIdleRanges(t *testing.T) {
	s := NewStore()
	var mu sync.Mutex
	var progress []core.ProgressEvent
	s.AttachCDC(keyspace.Full(), ingesterFuncs{
		append:   func(core.ChangeEvent) error { return nil },
		progress: func(p core.ProgressEvent) error { mu.Lock(); progress = append(progress, p); mu.Unlock(); return nil },
	})
	s.Put("zzz", []byte("1"))
	s.EmitProgress(keyspace.NumericRange(0, 100)) // idle range
	mu.Lock()
	defer mu.Unlock()
	last := progress[len(progress)-1]
	if last.Range != keyspace.NumericRange(0, 100) || last.Version != 1 {
		t.Fatalf("idle progress = %v", last)
	}
}

type ingesterFuncs struct {
	append   func(core.ChangeEvent) error
	progress func(core.ProgressEvent) error
}

func (f ingesterFuncs) Append(ev core.ChangeEvent) error    { return f.append(ev) }
func (f ingesterFuncs) Progress(p core.ProgressEvent) error { return f.progress(p) }

func (f ingesterFuncs) AppendBatch(evs []core.ChangeEvent) error {
	for _, ev := range evs {
		if err := f.append(ev); err != nil {
			return err
		}
	}
	return nil
}

// TestQuickSnapshotIsolation: run random ops, remembering a full model of
// history; every snapshot read must match the model exactly, before and
// after later writes.
func TestQuickSnapshotIsolation(t *testing.T) {
	keys := []keyspace.Key{"a", "b", "c", "d", "e"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		type modelState map[keyspace.Key]string
		history := map[core.Version]modelState{0: {}}
		cur := modelState{}
		var versions []core.Version

		for i := 0; i < 60; i++ {
			n := 1 + rng.Intn(3)
			next := modelState{}
			for k, v := range cur {
				next[k] = v
			}
			v, err := s.Commit(func(tx *Tx) error {
				for j := 0; j < n; j++ {
					k := keys[rng.Intn(len(keys))]
					if rng.Intn(4) == 0 {
						tx.Delete(k)
						delete(next, k)
					} else {
						val := fmt.Sprintf("%d-%d", i, j)
						tx.Put(k, []byte(val))
						next[k] = val
					}
				}
				return nil
			})
			if err != nil {
				return false
			}
			cur = next
			history[v] = next
			versions = append(versions, v)
		}
		// Check every key at every version against the model.
		for _, v := range versions {
			want := history[v]
			for _, k := range keys {
				val, ok, err := s.ValueAt(k, v)
				if err != nil {
					return false
				}
				wv, wok := want[k]
				if ok != wok || (ok && string(val) != wv) {
					t.Logf("seed %d: ValueAt(%q,%v) = %q/%v want %q/%v", seed, string(k), v, val, ok, wv, wok)
					return false
				}
			}
			// Scan agrees too.
			entries, err := s.Scan(keyspace.Full(), v, 0)
			if err != nil || len(entries) != len(want) {
				t.Logf("seed %d: scan at %v = %v, want %d entries", seed, v, entries, len(want))
				return false
			}
			for _, e := range entries {
				if want[e.Key] != string(e.Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickChainMatchesSliceModel checks the version chain against the
// structure it replaced — a map from key to a version slice, oldest first,
// trimmed by copying — under random interleavings of Put, Delete, multi-key
// transactions, GCBefore at a random horizon, Get and Scan at random
// versions. VersionsHeld must equal the model's count after every step, the
// lone-tombstone drop included.
func TestQuickChainMatchesSliceModel(t *testing.T) {
	type rec struct {
		v       core.Version
		val     string
		deleted bool
	}
	keys := []keyspace.Key{"a", "b", "c", "d", "e", "f"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		model := map[keyspace.Key][]rec{}
		var horizon, head core.Version
		at := func(k keyspace.Key, v core.Version) (rec, bool) {
			h := model[k]
			for i := len(h) - 1; i >= 0; i-- {
				if h[i].v <= v {
					return h[i], !h[i].deleted
				}
			}
			return rec{}, false
		}
		for step := 0; step < 120; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // one transaction of 1-3 writes, re-writes of a key included
				var writes []rec
				var wkeys []keyspace.Key
				for n := 1 + rng.Intn(3); n > 0; n-- {
					wkeys = append(wkeys, keys[rng.Intn(len(keys))])
					writes = append(writes, rec{val: fmt.Sprint(step, n), deleted: rng.Intn(3) == 0})
				}
				head, _ = s.Commit(func(tx *Tx) error {
					for i, k := range wkeys {
						if writes[i].deleted {
							tx.Delete(k)
						} else {
							tx.Put(k, []byte(writes[i].val))
						}
					}
					return nil
				})
				last := map[keyspace.Key]int{}
				for i, k := range wkeys {
					last[k] = i
				}
				for k, i := range last {
					w := writes[i]
					w.v = head
					model[k] = append(model[k], w)
				}
			case op < 7:
				h := core.Version(rng.Intn(int(head) + 2))
				s.GCBefore(h)
				h = min(h, head)
				if h <= horizon {
					break
				}
				horizon = h
				for k, hist := range model {
					keep := 0
					for i, r := range hist {
						if r.v <= h {
							keep = i
						}
					}
					hist = append([]rec(nil), hist[keep:]...)
					if len(hist) == 1 && hist[0].deleted && hist[0].v <= h {
						hist = nil
					}
					model[k] = hist
				}
			case op < 9:
				k, v := keys[rng.Intn(len(keys))], core.Version(rng.Intn(int(head)+1))
				val, ver, ok, err := s.Get(k, v)
				if v == core.NoVersion {
					v = head
				}
				if v < horizon {
					if !errors.Is(err, ErrVersionGCed) {
						t.Logf("seed %d step %d: Get(%q, %v) below horizon %v: err %v", seed, step, k, v, horizon, err)
						return false
					}
					break
				}
				want, live := at(k, v)
				if err != nil || ok != live || (ok && (string(val) != want.val || ver != want.v)) {
					t.Logf("seed %d step %d: Get(%q, %v) = %q@%v/%v/%v, model %+v/%v", seed, step, k, v, val, ver, ok, err, want, live)
					return false
				}
			default:
				v := horizon + core.Version(rng.Intn(int(head-horizon)+1))
				got, err := s.Scan(keyspace.Full(), v, 0)
				if v == core.NoVersion {
					v = head
				}
				var want []core.Entry
				for _, k := range keys {
					if r, live := at(k, v); live {
						want = append(want, core.Entry{Key: k, Value: []byte(r.val), Version: r.v})
					}
				}
				if err != nil || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Logf("seed %d step %d: Scan at %v = %v (err %v), model %v", seed, step, v, got, err, want)
					return false
				}
			}
			held := 0
			for _, hist := range model {
				held += len(hist)
			}
			if got := s.Stats().VersionsHeld; got != int64(held) {
				t.Logf("seed %d step %d: VersionsHeld = %d, model holds %d", seed, step, got, held)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGCPreservesVisibleHistory: after GCBefore(h), every read at
// version >= h returns exactly what it returned before GC.
func TestQuickGCPreservesVisibleHistory(t *testing.T) {
	keys := []keyspace.Key{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		var versions []core.Version
		for i := 0; i < 40; i++ {
			k := keys[rng.Intn(len(keys))]
			var v core.Version
			if rng.Intn(4) == 0 {
				v = s.Delete(k)
			} else {
				v = s.Put(k, []byte(fmt.Sprintf("%d", i)))
			}
			versions = append(versions, v)
		}
		h := versions[rng.Intn(len(versions))]
		type obs struct {
			val string
			ok  bool
		}
		before := map[string]obs{}
		for _, v := range versions {
			if v < h {
				continue
			}
			for _, k := range keys {
				val, ok, _ := s.ValueAt(k, v)
				before[fmt.Sprintf("%s@%d", k, v)] = obs{string(val), ok}
			}
		}
		s.GCBefore(h)
		for _, v := range versions {
			if v < h {
				if _, _, err := s.ValueAt(keys[0], v); !errors.Is(err, ErrVersionGCed) {
					return false
				}
				continue
			}
			for _, k := range keys {
				val, ok, err := s.ValueAt(k, v)
				if err != nil {
					return false
				}
				want := before[fmt.Sprintf("%s@%d", k, v)]
				if ok != want.ok || (ok && string(val) != want.val) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCommits(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Put(keyspace.NumericKey(w*1000+i%10), []byte{byte(i)})
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Commits != writers*per {
		t.Fatalf("commits = %d", st.Commits)
	}
	if st.Version != core.Version(writers*per) {
		t.Fatalf("TSO skipped: %v", st.Version)
	}
}

func TestBytesWrittenAccounting(t *testing.T) {
	s := NewStore()
	s.Put("abc", bytes.Repeat([]byte("x"), 100))
	if got := s.Stats().BytesWritten; got != 3+100+16 {
		t.Fatalf("BytesWritten = %d", got)
	}
}

func BenchmarkStorePutHot(b *testing.B) {
	s := NewStore()
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keyspace.NumericKey(i%4096), val)
	}
}

// BenchmarkStoreGCAblation quantifies the history-retention design choice:
// each iteration writes a burst of versioned history and garbage-collects to
// a horizon, reporting how many versions survive. Build and GC are timed
// together (untimed setup would dominate wall time); the interesting output
// is the versions-held metric per policy, with build cost constant across
// sub-benchmarks.
func BenchmarkStoreGCAblation(b *testing.B) {
	const writes, hotKeys = 4000, 256
	for _, keepFrac := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("keep=1/%d", keepFrac), func(b *testing.B) {
			for iter := 0; iter < b.N; iter++ {
				s := NewStore()
				for i := 0; i < writes; i++ {
					s.Put(keyspace.NumericKey(i%hotKeys), []byte("v"))
				}
				s.GCBefore(core.Version(writes - writes/keepFrac))
				b.ReportMetric(float64(s.Stats().VersionsHeld), "versions-held")
			}
		})
	}
}

func BenchmarkCDCFanout(b *testing.B) {
	s := NewStore()
	sink := ingesterFuncs{
		append:   func(core.ChangeEvent) error { return nil },
		progress: func(core.ProgressEvent) error { return nil },
	}
	for i := 0; i < 4; i++ {
		s.AttachCDC(keyspace.Full(), sink)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keyspace.NumericKey(i%1024), []byte("v"))
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s := NewStore()
	v1 := s.Put("a", []byte("1"))
	s.Put("a", []byte("2"))
	s.Delete("b") // tombstone for a never-live key
	s.Commit(func(tx *Tx) error {
		tx.Put("c", []byte("3"))
		tx.Put("d", []byte("4"))
		return nil
	})
	s.GCBefore(v1)

	data, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	// The image lists versions oldest first whatever order the store keeps
	// them in: a loaded store saves the bytes it was loaded from.
	if again, err := back.Save(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("Save after Load differs from the image loaded (err %v)", err)
	}
	if back.Stats().VersionsHeld != s.Stats().VersionsHeld {
		t.Fatalf("VersionsHeld %d vs %d", back.Stats().VersionsHeld, s.Stats().VersionsHeld)
	}
	if back.CurrentVersion() != s.CurrentVersion() {
		t.Fatalf("TSO %v vs %v", back.CurrentVersion(), s.CurrentVersion())
	}
	if back.Stats().Horizon != s.Stats().Horizon {
		t.Fatal("horizon lost")
	}
	// Every retained version reads identically.
	for v := s.Stats().Horizon; v <= s.CurrentVersion(); v++ {
		for _, k := range []keyspace.Key{"a", "b", "c", "d"} {
			wv, wok, werr := s.ValueAt(k, v)
			gv, gok, gerr := back.ValueAt(k, v)
			if (werr == nil) != (gerr == nil) || wok != gok || string(wv) != string(gv) {
				t.Fatalf("ValueAt(%q,%v): %q/%v/%v vs %q/%v/%v", k, v, wv, wok, werr, gv, gok, gerr)
			}
		}
	}
	// The restored store keeps committing from the right TSO position.
	next := back.Put("e", []byte("5"))
	if next != s.CurrentVersion()+1 {
		t.Fatalf("next version = %v", next)
	}
	// A watch system rebuilds from the restored store.
	entries, at, err := back.SnapshotRange(keyspace.Full())
	if err != nil || at != next {
		t.Fatalf("snapshot = %v @%v err=%v", entries, at, err)
	}
}

func TestLoadRejectsCorruptImages(t *testing.T) {
	if _, err := Load([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	s := NewStore()
	s.Put("b", []byte("1"))
	s.Put("a", []byte("2"))
	data, _ := s.Save()
	// Saved images are key-ordered by construction; corrupting the order is
	// detected. Build a bad image by hand.
	bad := storeImage{Version: 5, Keys: []keyImage{
		{Key: "b", Versions: []versionImage{{Version: 1}}},
		{Key: "a", Versions: []versionImage{{Version: 2}}},
	}}
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(bad)
	if _, err := Load(buf.Bytes()); err == nil {
		t.Fatal("out-of-order keys accepted")
	}
	bad2 := storeImage{Version: 1, Keys: []keyImage{
		{Key: "a", Versions: []versionImage{{Version: 5}}},
	}}
	buf.Reset()
	gob.NewEncoder(&buf).Encode(bad2)
	if _, err := Load(buf.Bytes()); err == nil {
		t.Fatal("version beyond TSO accepted")
	}
	_ = data
}
