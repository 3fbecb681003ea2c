package state

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dichotomy/internal/contract"
	"dichotomy/internal/storage"
	"dichotomy/internal/txn"
)

// Store is a concurrent versioned key-value store: values live in the
// underlying storage.Engine, per-key version metadata lives in a
// lock-striped Map. It implements both contract.StateReader (GetState)
// and occ.VersionSource (CommittedVersion), so contract simulation and
// MVCC validation read it directly.
//
// Concurrency contract:
//   - Get / GetState / CommittedVersion / CompareAndSetVersion lock only
//     the key's stripe.
//   - Snapshot pins a block-boundary-consistent view for the duration of
//     a simulation: it holds the commit gate shared, which excludes
//     ApplyBlock (the only multi-key mutator) but not point reads, CAS,
//     or other snapshots. One shared lock per snapshot — not one per
//     stripe — so many concurrent simulators do not convoy with the
//     commit path.
//   - ApplyBlock takes the commit gate exclusively, then each touched
//     stripe's write lock group by group.
type Store struct {
	engine   storage.Engine
	versions *Map[txn.Version]
	// gate orders block commits against snapshots: commits hold it
	// exclusively, snapshots share it. Point operations skip it — their
	// consistency unit is the single key, guarded by its stripe.
	gate sync.RWMutex

	// dirty is the set of keys touched since the last ResetDirty — the
	// per-interval dirty set delta checkpoints serialize instead of the
	// whole store. Tracking is opt-in (EnableDirtyTracking): stores
	// without a delta checkpointer skip the bookkeeping entirely, so
	// the commit path pays nothing for a feature it doesn't use and the
	// set can't grow unbounded with nobody resetting it. When enabled,
	// ApplyBlock and CompareAndSetVersion record into it; dirtyBytes
	// accumulates an upper bound of the touched data (rewrites of the
	// same key count each time). Guarded by its own mutex so DirtyStats
	// is readable from any goroutine without touching the commit gate.
	trackDirty atomic.Bool
	dirtyMu    sync.Mutex
	dirty      map[string]struct{}
	dirtyBytes int64

	// scratch is ApplyBlock's working memory, reused block after block;
	// the commit gate, held exclusively, serializes its users.
	scratch struct {
		idxs    []int            // each write's stripe
		starts  []int            // each stripe's first index in group; len ShardCount
		stripes []int            // the touched stripes, ascending
		group   []VersionedWrite // the block's writes, grouped by stripe
		// batch is one group's engine batch. Its keys view the write
		// set's strings and its values are the write set's own slices,
		// which the engine keeps (storage.Engine's ownership rule):
		// nothing here copies a write.
		batch []storage.Write
	}
}

// EnableDirtyTracking turns on dirty-key tracking. It must be called
// before the writes the next delta checkpoint is expected to cover —
// in practice before any traffic: the delta checkpointer enables it at
// construction, and recovery enables it before restoring into a fresh
// store (so the restored keys count as dirty and the first post-crash
// checkpoint is a complete chain seed). Enabling is one-way.
func (s *Store) EnableDirtyTracking() { s.trackDirty.Store(true) }

// New layers a versioned store over engine with the given stripe count
// (≤ 0 selects DefaultShards; 1 is the global-lock baseline).
func New(engine storage.Engine, shards int) *Store {
	s := &Store{
		engine:   engine,
		versions: NewMap[txn.Version](shards),
		dirty:    make(map[string]struct{}),
	}
	s.scratch.starts = make([]int, s.versions.ShardCount())
	return s
}

// Engine exposes the underlying engine (for footprint accounting).
func (s *Store) Engine() storage.Engine { return s.engine }

// Shards returns the stripe count.
func (s *Store) Shards() int { return s.versions.ShardCount() }

// Get returns the committed value and version of key, or
// storage.ErrNotFound. Value and version are read together under the
// key's stripe lock, so they are mutually consistent even against a
// concurrent block commit.
func (s *Store) Get(key string) ([]byte, txn.Version, error) {
	var (
		val []byte
		ver txn.Version
		err error
	)
	s.versions.View(key, func(v txn.Version, ok bool) {
		val, err = s.engine.Get(storage.KeyView(key))
		if ok {
			ver = v
		}
	})
	return val, ver, err
}

// GetState implements contract.StateReader.
func (s *Store) GetState(key string) ([]byte, txn.Version, error) {
	v, ver, err := s.Get(key)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, txn.Version{}, contract.ErrNotFound
	}
	return v, ver, err
}

// CommittedVersion implements occ.VersionSource.
func (s *Store) CommittedVersion(key string) (txn.Version, bool) {
	return s.versions.Get(key)
}

// CompareAndSetVersion installs next as key's version iff the current
// version equals expect (the zero Version matches an absent key). A zero
// next deletes the entry. It returns whether the swap happened — the
// per-key CAS validation primitive.
func (s *Store) CompareAndSetVersion(key string, expect, next txn.Version) bool {
	swapped := false
	s.versions.Update(key, func(cur txn.Version, ok bool) (txn.Version, bool) {
		if !ok {
			cur = txn.Version{}
		}
		if cur != expect {
			return cur, ok
		}
		swapped = true
		if next == (txn.Version{}) {
			return cur, false
		}
		return next, true
	})
	if swapped && s.trackDirty.Load() {
		// A version-only change still dirties the key: a delta checkpoint
		// must carry the new version even though the value is unchanged.
		s.dirtyMu.Lock()
		s.dirty[key] = struct{}{}
		s.dirtyBytes += int64(len(key)) + versionDirtyCost
		s.dirtyMu.Unlock()
	}
	return swapped
}

// Range iterates the committed key-value pairs in engine order (a test
// and inspection surface; it observes the engine's iterator snapshot
// semantics).
func (s *Store) Range(fn func(key string, value []byte) bool) {
	it := s.engine.NewIterator(nil)
	defer it.Close()
	for it.Next() {
		if !fn(string(it.Key()), it.Value()) {
			return
		}
	}
}

// Dump iterates every committed key with its value and version while
// holding the commit gate shared, so no block commit can tear the view:
// the triples are consistent with a block boundary. Per-key CAS is not
// excluded — callers that need an exact-height snapshot (the checkpoint
// path) run Dump from the committer goroutine or a quiesced store, where
// no validation CAS is in flight. Return false from fn to stop early.
func (s *Store) Dump(fn func(key string, value []byte, ver txn.Version) bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	it := s.engine.NewIterator(nil)
	defer it.Close()
	for it.Next() {
		key := string(it.Key())
		ver, _ := s.versions.Get(key)
		if !fn(key, it.Value(), ver) {
			return
		}
	}
}

// versionDirtyCost is the per-entry bookkeeping charged to dirtyBytes on
// top of key and value length (a txn.Version plus a liveness flag — the
// fixed wire cost a delta checkpoint record carries).
const versionDirtyCost = 16

// DirtyStats summarizes the dirty set accumulated since the last
// ResetDirty: how many distinct keys a delta checkpoint would carry and
// an upper bound on their serialized size (rewrites of the same key are
// counted each time they commit, so ApproxBytes ≥ the delta file size).
type DirtyStats struct {
	Keys        int
	ApproxBytes int64
}

// DirtyStats returns the current dirty-set summary. It is cheap (two
// field reads under the dirty mutex) and safe from any goroutine.
func (s *Store) DirtyStats() DirtyStats {
	s.dirtyMu.Lock()
	defer s.dirtyMu.Unlock()
	return DirtyStats{Keys: len(s.dirty), ApproxBytes: s.dirtyBytes}
}

// DumpDirty iterates only the keys dirtied since the last ResetDirty
// (nothing unless EnableDirtyTracking preceded the writes),
// with their committed value and version, under the commit gate shared —
// the same block-boundary consistency Dump provides, at O(dirty) cost
// instead of O(store). A key that was dirtied and then deleted is
// reported with live == false (a tombstone: the delta must record the
// deletion, not skip it). Keys are visited in sorted order, so a delta
// serialized from this iteration is deterministic. Like Dump, callers
// needing an exact-height snapshot run it from the committer goroutine
// or a quiesced store. Return false from fn to stop early.
func (s *Store) DumpDirty(fn func(key string, value []byte, ver txn.Version, live bool) bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.dirtyMu.Lock()
	keys := make([]string, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, k)
	}
	s.dirtyMu.Unlock()
	slices.Sort(keys)
	for _, k := range keys {
		v, err := s.engine.Get(storage.KeyView(k))
		if err != nil {
			// Deleted since it was dirtied (or unreadable, which the
			// in-memory engines only report as not-found): tombstone.
			if !fn(k, nil, txn.Version{}, false) {
				return
			}
			continue
		}
		ver, _ := s.versions.Get(k)
		if !fn(k, v, ver, true) {
			return
		}
	}
}

// ResetDirty clears the dirty set; the checkpointer calls it right after
// materializing a delta (or writing a full checkpoint, which covers
// everything), so the next interval accumulates from empty. The set is
// cleared in place: it keeps its room for the next interval's keys.
func (s *Store) ResetDirty() {
	s.dirtyMu.Lock()
	clear(s.dirty)
	s.dirtyBytes = 0
	s.dirtyMu.Unlock()
}

// Len returns the number of live keys in the engine.
func (s *Store) Len() int { return s.engine.Len() }

// ApproxSize returns the engine's resident data size in bytes.
func (s *Store) ApproxSize() int64 { return s.engine.ApproxSize() }

// Close releases the underlying engine.
func (s *Store) Close() error { return s.engine.Close() }

// VersionedWrite couples one write with the version it installs.
type VersionedWrite struct {
	txn.Write
	Version txn.Version
}

// ApplyBlock commits a block of writes atomically: it takes the commit
// gate exclusively (excluding snapshots), groups the writes by stripe,
// acquires every touched stripe's write lock at once (ascending; the
// gate serializes commits, so multi-lock acquisition cannot deadlock),
// and flushes each group through the engine's storage.Batch fast path —
// so neither snapshots nor point readers ever observe half a block.
// Writes are applied in slice order within each stripe, so a later write
// of the same key wins. A nil Value deletes the key and its version.
//
// Error contract: a failing stripe group stops the commit, and groups
// applied before it remain committed. With the repo's in-memory engines
// an error implies the engine is closed, so no reader observes the
// partial state; a fallible engine would need an undo log here.
func (s *Store) ApplyBlock(writes []VersionedWrite) error {
	if len(writes) == 0 {
		return nil
	}
	s.gate.Lock()
	defer s.gate.Unlock()

	// Group the writes by stripe, a counting sort into the scratch: count
	// each stripe's writes, turn the counts into each group's end, then
	// place the writes last to first, which leaves starts at each group's
	// start and each group in slice order.
	sc := &s.scratch
	idxs, starts := sc.idxs[:0], sc.starts
	clear(starts)
	for _, w := range writes {
		idx := s.versions.ShardOf(w.Key)
		idxs = append(idxs, idx)
		starts[idx]++
	}
	stripes, sum := sc.stripes[:0], 0
	for idx, n := range starts {
		if n > 0 {
			stripes = append(stripes, idx)
		}
		sum += n
		starts[idx] = sum
	}
	group := slices.Grow(sc.group[:0], len(writes))[:len(writes)]
	for i := len(writes) - 1; i >= 0; i-- {
		starts[idxs[i]]--
		group[starts[idxs[i]]] = writes[i]
	}
	s.versions.lockShards(stripes)
	defer s.versions.unlockShards(stripes)
	var err error
	for k, idx := range stripes {
		end := len(group)
		if k+1 < len(stripes) {
			end = starts[stripes[k+1]]
		}
		if err = s.applyGroup(idx, group[starts[idx]:end]); err != nil {
			break
		}
	}
	clear(group) // hold no write past the commit
	sc.idxs, sc.stripes, sc.group = idxs, stripes, group[:0]
	return err
}

// applyGroup flushes one stripe's write group through the engine batch
// path and installs its version metadata; the caller holds the commit
// gate and the stripe's write lock.
func (s *Store) applyGroup(idx int, group []VersionedWrite) error {
	batch := s.scratch.batch[:0]
	for _, w := range group {
		batch = append(batch, storage.Write{Key: storage.KeyView(w.Key), Value: w.Value})
	}
	err := storage.ApplyWrites(s.engine, batch)
	clear(batch) // hold no value past the commit
	s.scratch.batch = batch[:0]
	if err != nil {
		return fmt.Errorf("state: block commit (stripe %d): %w", idx, err)
	}
	m := s.versions.shardMap(idx)
	for _, w := range group {
		if w.Value == nil {
			delete(m, w.Key)
		} else {
			m[w.Key] = w.Version
		}
	}
	if s.trackDirty.Load() {
		s.dirtyMu.Lock()
		for _, w := range group {
			s.dirty[w.Key] = struct{}{}
			s.dirtyBytes += int64(len(w.Key)+len(w.Value)) + versionDirtyCost
		}
		s.dirtyMu.Unlock()
	}
	return nil
}

// Snapshot pins a block-boundary-consistent read view: the commit gate is
// held shared until Release, which excludes ApplyBlock (but not point
// reads, per-key CAS, or other snapshots) for the snapshot's lifetime.
// This is the view contract simulation and endorsement run against.
type Snapshot struct {
	s        *Store
	released bool
}

// Snapshot returns a consistent view of the store. The caller must
// Release it; reads through a released snapshot are invalid.
func (s *Store) Snapshot() *Snapshot {
	sn := new(Snapshot)
	s.SnapshotInto(sn)
	return sn
}

// SnapshotInto pins sn as Snapshot pins a new one: a caller that takes one
// short-lived snapshot after another on one goroutine (Quorum's proposer,
// once per transaction) keeps a single Snapshot and allocates none. sn
// must not be pinned.
func (s *Store) SnapshotInto(sn *Snapshot) {
	s.gate.RLock()
	*sn = Snapshot{s: s}
}

// Get returns the value and version of key in the snapshot.
func (sn *Snapshot) Get(key string) ([]byte, txn.Version, error) {
	// Block commits are excluded by the gate; the per-key stripe lock
	// inside Store.Get keeps the read atomic against concurrent CAS.
	return sn.s.Get(key)
}

// GetState implements contract.StateReader over the snapshot.
func (sn *Snapshot) GetState(key string) ([]byte, txn.Version, error) {
	return sn.s.GetState(key)
}

// CommittedVersion implements occ.VersionSource over the snapshot.
func (sn *Snapshot) CommittedVersion(key string) (txn.Version, bool) {
	return sn.s.CommittedVersion(key)
}

// Release unpins the snapshot. Safe to call more than once.
func (sn *Snapshot) Release() {
	if sn.released {
		return
	}
	sn.released = true
	sn.s.gate.RUnlock()
}

// Block stages a block commit: writes accumulate with their versions and
// overlay reads, so order-execute systems re-executing a block see their
// own earlier writes (read-your-block-writes) before anything touches the
// store. Commit flushes the staged writes through ApplyBlock in one
// multi-stripe critical section and empties the block, so one Block may
// stage block after block. A Block is used by a single committer goroutine
// and is not safe for concurrent use.
type Block struct {
	s      *Store
	dirty  map[string]stagedWrite
	writes []VersionedWrite
}

type stagedWrite struct {
	value []byte
	ver   txn.Version
	del   bool
}

// NewBlock starts staging a block commit against s.
func (s *Store) NewBlock() *Block {
	return &Block{s: s, dirty: make(map[string]stagedWrite)}
}

// Stage buffers one write at the given version.
func (b *Block) Stage(w txn.Write, ver txn.Version) {
	b.writes = append(b.writes, VersionedWrite{Write: w, Version: ver})
	b.dirty[w.Key] = stagedWrite{value: w.Value, ver: ver, del: w.Value == nil}
}

// StageAll buffers a write set at the given version.
func (b *Block) StageAll(ws []txn.Write, ver txn.Version) {
	for _, w := range ws {
		b.Stage(w, ver)
	}
}

// Pending returns the number of staged writes.
func (b *Block) Pending() int { return len(b.writes) }

// Writes returns the staged writes in staging order. The slice is the
// block's own: Commit zeroes it and the next Stage writes into it.
func (b *Block) Writes() []VersionedWrite { return b.writes }

// GetState implements contract.StateReader: staged writes shadow the
// store, giving in-block read-your-writes.
func (b *Block) GetState(key string) ([]byte, txn.Version, error) {
	if w, ok := b.dirty[key]; ok {
		if w.del {
			return nil, txn.Version{}, contract.ErrNotFound
		}
		return w.value, w.ver, nil
	}
	return b.s.GetState(key)
}

// CommittedVersion implements occ.VersionSource with the staged overlay,
// so in-block validation sees earlier in-block writes (Fabric's serial
// block semantics).
func (b *Block) CommittedVersion(key string) (txn.Version, bool) {
	if w, ok := b.dirty[key]; ok {
		if w.del {
			return txn.Version{}, false
		}
		return w.ver, true
	}
	return b.s.CommittedVersion(key)
}

// Commit applies the staged writes through the store's grouped batch
// path and empties the block whether or not the apply failed: a failed
// block's writes are dropped, as a block started afresh would drop them,
// and the next block stages only its own (see ApplyBlock's error
// contract). The block holds no staged value past Commit.
func (b *Block) Commit() error {
	err := b.s.ApplyBlock(b.writes)
	clear(b.writes)
	b.writes = b.writes[:0]
	clear(b.dirty)
	return err
}
