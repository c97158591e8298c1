package mvcc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"

	"unbundle/internal/core"
	"unbundle/internal/keyspace"
)

// storeImage is the serialized form of a store: every key's retained version
// chain plus the TSO and GC horizon. CDC taps are runtime wiring and are not
// serialized — after a restore, watch systems rebuild from the store via
// snapshot + watch, exactly as the unbundled model prescribes.
type storeImage struct {
	Version core.Version
	Horizon core.Version
	Keys    []keyImage
}

type keyImage struct {
	Key      keyspace.Key
	Versions []versionImage
}

type versionImage struct {
	Version core.Version
	Value   []byte
	Deleted bool
}

// Save serializes the store's full retained state.
func (s *Store) Save() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	img := storeImage{Version: s.version, Horizon: s.horizon}
	s.keys.ascend(keyspace.Full(), func(n *slot) bool {
		ki := keyImage{Key: n.key}
		for r := n.head; r != nil; r = r.prev {
			ki.Versions = append(ki.Versions, versionImage{Version: r.version, Value: r.value, Deleted: r.deleted})
		}
		slices.Reverse(ki.Versions) // the image lists them oldest first
		img.Keys = append(img.Keys, ki)
		return true
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("mvcc: save: %w", err)
	}
	return buf.Bytes(), nil
}

// Load reconstructs a store from a Save image: same TSO position, same
// horizon, same visible history at every retained version.
func Load(data []byte) (*Store, error) {
	var img storeImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("mvcc: load: %w", err)
	}
	s := NewStore()
	s.version = img.Version
	s.horizon = img.Horizon
	var prevKey keyspace.Key
	for i, ki := range img.Keys {
		if i > 0 && ki.Key <= prevKey {
			return nil, fmt.Errorf("mvcc: load: keys out of order at %q", string(ki.Key))
		}
		prevKey = ki.Key
		n := s.keys.getOrCreate(ki.Key)
		var prevV core.Version
		for _, vi := range ki.Versions {
			if vi.Version <= prevV {
				return nil, fmt.Errorf("mvcc: load: versions out of order for %q", string(ki.Key))
			}
			if vi.Version > img.Version {
				return nil, fmt.Errorf("mvcc: load: version %v beyond TSO %v", vi.Version, img.Version)
			}
			prevV = vi.Version
			n.head = &version{version: vi.Version, value: vi.Value, deleted: vi.Deleted, prev: n.head}
			s.versionsHeld++
		}
	}
	return s, nil
}
