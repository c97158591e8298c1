package mvcc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// drain reads c to the end in chunks of the given sizes (cycled), calling
// between after every chunk but the last.
func drain(c core.SnapshotCursor, sizes []int, between func()) ([]core.Entry, error) {
	var all []core.Entry
	for i := 0; ; i++ {
		got, done, err := c.Next(make([]core.Entry, 0, sizes[i%len(sizes)]))
		if err != nil {
			return all, err
		}
		all = append(all, got...)
		if done {
			return all, nil
		}
		between()
	}
}

// TestQuickCursorEqualsScanAtPinnedVersion: a cursor drained in random chunk
// sizes returns exactly Scan at its pinned version, whatever commits, deletes
// and GC (up to the pin) run between its Next calls.
func TestQuickCursorEqualsScanAtPinnedVersion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		mutate := func() {
			s.Commit(func(tx *Tx) error {
				for j := 1 + rng.Intn(4); j > 0; j-- {
					k := keyspace.NumericKey(rng.Intn(80))
					if rng.Intn(3) == 0 {
						tx.Delete(k)
					} else {
						tx.Put(k, []byte(fmt.Sprintf("%d", rng.Int())))
					}
				}
				return nil
			})
		}
		for i := 0; i < 100; i++ {
			mutate()
		}
		r := keyspace.Full()
		if rng.Intn(2) == 0 {
			lo := rng.Intn(60)
			r = keyspace.NumericRange(lo, lo+1+rng.Intn(40))
		}
		c := s.SnapshotCursor(r)
		var want []core.Entry
		sizes := []int{1 + rng.Intn(5), 1 + rng.Intn(30), 1}
		got, err := drain(c, sizes, func() {
			if want == nil {
				// The first Next pinned c.At(): fix the expectation now, before
				// GC trims the versions older pins could see.
				want, _ = s.Scan(r, c.At(), 0)
			}
			for i := rng.Intn(4); i > 0; i-- {
				mutate()
			}
			if rng.Intn(2) == 0 {
				s.GCBefore(c.At())
			}
		})
		if want == nil {
			want, _ = s.Scan(r, c.At(), 0)
		}
		if err != nil || len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Logf("seed %d: cursor over %v at %v = %d entries (err %v), scan = %d", seed, r, c.At(), len(got), err, len(want))
			return false
		}
		if b := c.Bound(); b != 0 && b < len(got) {
			t.Logf("seed %d: bound %d below the %d entries returned", seed, b, len(got))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCursorHoldsNoLockBetweenChunks: a writer on the cursor's own goroutine
// gets in between two Next calls (it would deadlock if the read lock outlived
// Next), and the following chunks still show the pinned version — also once a
// GC up to the pin has cut every chain behind the record the pin reads, with
// newer records stacked in front of it.
func TestCursorHoldsNoLockBetweenChunks(t *testing.T) {
	s := NewStore()
	for _, val := range []string{"older", "old"} {
		for i := 0; i < 10; i++ {
			s.Put(keyspace.NumericKey(i), []byte(val))
		}
	}
	c := s.SnapshotCursor(keyspace.Full())
	got, err := drain(c, []int{4}, func() {
		for i := 0; i < 12; i++ { // overwrite everything, add two keys past the end
			s.Put(keyspace.NumericKey(i), []byte("new"))
		}
		s.Delete(keyspace.NumericKey(7))
		s.GCBefore(c.At())
	})
	if err != nil || len(got) != 10 {
		t.Fatalf("cursor returned %d entries, err %v; want the 10 of its pinned version", len(got), err)
	}
	for i, e := range got {
		if e.Key != keyspace.NumericKey(i) || string(e.Value) != "old" || e.Version > c.At() {
			t.Fatalf("entry %d = %q %q %v: not the pinned version %v", i, string(e.Key), e.Value, e.Version, c.At())
		}
	}
	if b := c.Bound(); b != 10 {
		t.Fatalf("bound = %d, want the 10 keys present at the pin", b)
	}
}

// TestCursorGCMidStream: a GC past the pinned version between chunks ends the
// stream with ErrVersionGCed — never a chunk read at some other version — and
// the chunk already handed out, whose values alias the collected versions,
// still reads as it did.
func TestCursorGCMidStream(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.Put(keyspace.NumericKey(i), []byte("v"))
	}
	c := s.SnapshotCursor(keyspace.Full())
	held, done, err := c.Next(make([]core.Entry, 0, 4))
	if err != nil || done || len(held) != 4 {
		t.Fatalf("first chunk = %d entries, done %v, err %v", len(held), done, err)
	}
	for i := 0; i < 10; i++ {
		s.Put(keyspace.NumericKey(i), []byte("w"))
	}
	s.GCBefore(s.CurrentVersion())
	if _, _, err := c.Next(make([]core.Entry, 0, 4)); !errors.Is(err, ErrVersionGCed) {
		t.Fatalf("Next after GC past the pin = %v, want ErrVersionGCed", err)
	}
	for i, e := range held {
		if e.Key != keyspace.NumericKey(i) || string(e.Value) != "v" {
			t.Fatalf("held entry %d = %q %q after overwrite and GC", i, string(e.Key), e.Value)
		}
	}
}

// TestSnapshotAtNowSurvivesCommitThenGC is the regression test for the read
// "at now" that pinned its version under one read lock and scanned under
// another, so that a Commit+GCBefore landing in between failed it with
// ErrVersionGCed. The cursor pins inside its first Next: the same
// interleaving ahead of that call is harmless, and the read reflects it.
func TestSnapshotAtNowSurvivesCommitThenGC(t *testing.T) {
	s := NewStore()
	s.Put("a", []byte("1"))
	c := s.SnapshotCursor(keyspace.Full())
	v := s.Put("a", []byte("2"))
	s.GCBefore(v)
	got, done, err := c.Next(make([]core.Entry, 0, 4))
	if err != nil || !done || len(got) != 1 || string(got[0].Value) != "2" || c.At() != v {
		t.Fatalf("first chunk after commit+GC = %v done %v err %v at %v", got, done, err, c.At())
	}
}

// TestCursorFullLastChunkEndsOnEmptyOne: Next returns at the entry that fills
// its buffer without looking ahead for another, so a snapshot whose last chunk
// comes back full is closed by an empty one.
func TestCursorFullLastChunkEndsOnEmptyOne(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Put(keyspace.NumericKey(i), []byte("v"))
	}
	s.Delete(keyspace.NumericKey(8)) // a tombstone behind the last live key
	c := s.SnapshotCursor(keyspace.Full())
	for i, want := range []struct {
		n    int
		done bool
	}{{4, false}, {4, false}, {0, true}} {
		got, done, err := c.Next(make([]core.Entry, 0, 4))
		if err != nil || len(got) != want.n || done != want.done {
			t.Fatalf("Next %d = %d entries, done %v, err %v; want %d, %v", i, len(got), done, err, want.n, want.done)
		}
	}
}
