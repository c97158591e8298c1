package mvcc

import (
	"runtime"
	"testing"
)

// heapPerStoredKey bounds TestHeapPerStoredKey: 157 B measured on
// linux/amd64, plus 10 %.
const heapPerStoredKey = 172

// TestHeapPerStoredKey is the first row of the heap ledger (DESIGN.md): the
// heap a stored key retains — its index slot, one version record and its
// 64 B value — after the benchmark harness's 100k-key preload. Keys are
// allocated before the first reading: the store shares the caller's key
// strings. Not parallel: the reading is the whole process's heap.
func TestHeapPerStoredKey(t *testing.T) {
	keys, val := preloadKeyList(), make([]byte, 64)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore()
	preload(s, keys, val, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perKey := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / preloadKeys
	t.Logf("%.1f B per stored key", perKey)
	if perKey > heapPerStoredKey {
		t.Fatalf("a stored key retains %.1f B, bound %d", perKey, heapPerStoredKey)
	}
}
