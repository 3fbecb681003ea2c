// Package state is the shared versioned-state layer every modelled system
// commits through: a lock-striped concurrent map of per-key version
// metadata (txn.Version) layered over any storage.Engine. Before this
// layer existed each system guarded its engine plus a private
// map[string]txn.Version behind one global mutex, so concurrent load
// measured lock convoys instead of the paper's design dichotomy. The
// striping here hash-partitions keys across N shards, each with its own
// RWMutex, so point reads and per-key version CAS on different keys never
// contend; block-boundary-consistent snapshots (for simulation and
// endorsement) and block commits coordinate through Store's commit gate —
// one shared acquisition per snapshot, one exclusive per block.
package state

import (
	"sync"
)

// DefaultShards is the stripe count used when the caller passes zero; it
// comfortably exceeds the worker counts the experiments sweep.
const DefaultShards = 32

// Map is a lock-striped hash map from string keys to V. Every operation
// locks only the shard owning its key, so operations on keys in different
// shards never contend. The zero value is not usable; call NewMap.
type Map[V any] struct {
	shards []mapShard[V]
	mask   uint32
}

// mapShard pads each stripe to its own cache line so shard locks on
// adjacent stripes do not false-share.
type mapShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
	_  [32]byte
}

// NewMap returns a striped map with the given shard count, rounded up to
// a power of two; n ≤ 0 selects DefaultShards. A single shard degenerates
// to one global lock — the baseline BenchmarkStateScaling compares
// against.
func NewMap[V any](n int) *Map[V] {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	m := &Map[V]{shards: make([]mapShard[V], size), mask: uint32(size - 1)}
	for i := range m.shards {
		m.shards[i].m = make(map[string]V) //lint:allow gatediscipline construction, the map is not yet shared
	}
	return m
}

// ShardCount returns the number of stripes.
func (m *Map[V]) ShardCount() int { return len(m.shards) }

// ShardOf returns the index of the stripe owning key (FNV-1a).
func (m *Map[V]) ShardOf(key string) int { return shardOf(key, m.mask) }

func shardOf[K string | []byte](key K, mask uint32) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & mask)
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	sh := &m.shards[m.ShardOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// View runs fn with the key's current value under the shard read lock.
// fn must not call back into the map (the shard lock is held).
func (m *Map[V]) View(key string, fn func(v V, ok bool)) {
	sh := &m.shards[m.ShardOf(key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[key]
	fn(v, ok)
}

// Set stores v under key.
func (m *Map[V]) Set(key string, v V) {
	sh := &m.shards[m.ShardOf(key)]
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

// Delete removes key.
func (m *Map[V]) Delete(key string) {
	sh := &m.shards[m.ShardOf(key)]
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// Update atomically transforms the entry for key: fn receives the current
// value (zero value if absent) and returns the new value plus whether to
// keep it — false deletes the entry. The shard write lock is held across
// fn, which is what gives multi-field per-key operations (version CAS,
// Percolator lock checks) their atomicity. fn must not call back into the
// map.
func (m *Map[V]) Update(key string, fn func(v V, ok bool) (V, bool)) {
	sh := &m.shards[m.ShardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[key]
	next, keep := fn(v, ok)
	if keep {
		sh.m[key] = next
	} else if ok {
		delete(sh.m, key)
	}
}

// EditBytes is Update for a key held as bytes, over values fn changes in
// place (pointers): an entry that exists keeps its value and its key, and
// fn's result is stored only for an absent key. So finding, editing and
// deleting an entry allocate nothing, and a key is copied into a string
// once, when it first enters the map. keep false deletes the entry.
func (m *Map[V]) EditBytes(key []byte, fn func(v V, ok bool) (V, bool)) {
	sh := &m.shards[shardOf(key, m.mask)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[string(key)]
	if next, keep := fn(v, ok); keep && !ok {
		sh.m[string(key)] = next
	} else if !keep && ok {
		delete(sh.m, string(key))
	}
}

// Range calls fn for every entry until fn returns false. Each shard is
// visited under its read lock; entries added or removed concurrently in
// other shards may or may not be observed. fn must not call back into the
// map.
func (m *Map[V]) Range(fn func(key string, v V) bool) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			if !fn(k, v) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Len returns the number of entries.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// lockShards acquires the write locks of the listed shards, which must
// be sorted ascending and deduplicated; unlockShards releases them.
// Holding all of a block's stripes at once keeps point readers from
// observing a torn block commit. Concurrent multi-lock callers must be
// externally serialized (the Store's commit gate does this).
func (m *Map[V]) lockShards(idx []int) {
	for _, i := range idx {
		m.shards[i].mu.Lock()
	}
}

// unlockShards releases the locks taken by lockShards.
func (m *Map[V]) unlockShards(idx []int) {
	for _, i := range idx {
		m.shards[i].mu.Unlock()
	}
}

// shardMap returns a shard's backing map; the caller must hold that
// shard's write lock (via lockShards).
func (m *Map[V]) shardMap(shard int) map[string]V { return m.shards[shard].m }
