// Package mvcc implements a multi-version store with Percolator-style
// two-phase locking over snapshots — TiDB/TiKV's transaction substrate.
// Writers prewrite locks (primary first), then commit by converting locks
// to versions at a commit timestamp; readers see the latest version at or
// below their snapshot timestamp and block on (here: abort at) conflicting
// locks. The latch contention this creates on hot primary records is the
// mechanism behind TiDB's collapse under skew in Fig 9.
//
// The store is built on the lock-striped shard map of internal/state:
// each key's version chain and Percolator lock live in one entry whose
// stripe lock scopes every per-key operation, so transactions touching
// different keys no longer funnel through a single store-wide mutex.
package mvcc

import (
	"errors"
	"fmt"
	"slices"

	"dichotomy/internal/state"
)

// ErrLocked is returned when a read or prewrite encounters another
// transaction's lock.
var ErrLocked = errors.New("mvcc: key locked by another transaction")

// ErrWriteConflict is returned at prewrite when a newer committed version
// exists than the transaction's snapshot — Percolator's write-write
// conflict.
var ErrWriteConflict = errors.New("mvcc: write-write conflict")

// ErrNotFound is returned when no visible version exists.
var ErrNotFound = errors.New("mvcc: key not found")

// version is one committed value of a key.
type version struct {
	startTS  uint64
	commitTS uint64
	value    []byte // nil for delete markers
}

// lock is a Percolator lock, held while held is set. It lives by value in
// its key's entry, so taking and clearing one allocates nothing. primary
// and value are the prewriting command's own bytes, kept uncopied: nothing
// downstream mutates a stored slice (see tidb's region codec), and commit
// moves value into the version it installs.
type lock struct {
	held    bool
	startTS uint64
	primary []byte
	value   []byte
	delete_ bool
}

// keyEntry is one key's transactional state: its committed version chain
// (ascending commitTS) and its current Percolator lock, if any. Keeping
// both in one striped-map entry makes the combined lock-then-version
// checks atomic under the stripe lock.
type keyEntry struct {
	versions []version
	lock     lock
}

// Store is a multi-version key space. Safe for concurrent use; keys hash
// to independent stripes.
type Store struct {
	keys *state.Map[*keyEntry]
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{keys: state.NewMap[*keyEntry](0)}
}

// readVersion returns the newest value at or below ts.
func readVersion(vs []version, ts uint64) ([]byte, error) {
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].commitTS <= ts {
			if vs[i].value == nil {
				return nil, ErrNotFound
			}
			return vs[i].value, nil
		}
	}
	return nil, ErrNotFound
}

// Get reads key at snapshot ts. A lock with startTS ≤ ts from another
// transaction makes the outcome ambiguous; Percolator waits or resolves,
// TiDB's optimistic path surfaces it — we return ErrLocked and the caller
// retries or aborts.
func (s *Store) Get(key string, ts uint64) ([]byte, error) {
	val, err := []byte(nil), error(ErrNotFound)
	s.keys.View(key, func(e *keyEntry, ok bool) {
		if !ok {
			return
		}
		if e.lock.held && e.lock.startTS <= ts {
			err = fmt.Errorf("%w: key %q since ts %d", ErrLocked, key, e.lock.startTS)
			return
		}
		val, err = readVersion(e.versions, ts)
	})
	return val, err
}

// LatestCommitTS returns the newest commit timestamp of key (0 if never
// written).
func (s *Store) LatestCommitTS(key string) uint64 {
	var ts uint64
	s.keys.View(key, func(e *keyEntry, ok bool) {
		if ok && len(e.versions) > 0 {
			ts = e.versions[len(e.versions)-1].commitTS
		}
	})
	return ts
}

// Prewrite attempts to lock key for the transaction that started at
// startTS, buffering the new value. primary names the transaction's
// primary key, whose lock decides the transaction's fate.
func (s *Store) Prewrite(key string, value []byte, del bool, startTS uint64, primary string) error {
	return s.PrewriteBytes([]byte(key), value, del, startTS, []byte(primary))
}

// PrewriteBytes is Prewrite for a key and primary held as bytes, which the
// store keeps without copying and must not be changed afterwards. Only a
// key's first write copies it, into the string the store indexes it by.
func (s *Store) PrewriteBytes(key, value []byte, del bool, startTS uint64, primary []byte) error {
	var err error
	s.keys.EditBytes(key, func(e *keyEntry, ok bool) (*keyEntry, bool) {
		if !ok {
			e = &keyEntry{}
		}
		if e.lock.held {
			if e.lock.startTS == startTS {
				// Idempotent re-prewrite by the same transaction.
				e.lock.value, e.lock.delete_ = value, del
				return e, true
			}
			err = fmt.Errorf("%w: key %q held since ts %d", ErrLocked, key, e.lock.startTS)
			return e, ok
		}
		// Write-write conflict: someone committed after our snapshot.
		if n := len(e.versions); n > 0 && e.versions[n-1].commitTS > startTS {
			err = fmt.Errorf("%w: key %q committed at %d > start %d",
				ErrWriteConflict, key, e.versions[n-1].commitTS, startTS)
			return e, ok
		}
		e.lock = lock{held: true, startTS: startTS, primary: primary, value: value, delete_: del}
		return e, true
	})
	return err
}

// Commit converts the lock at startTS into a committed version at
// commitTS. Committing a missing lock is an error (the transaction was
// rolled back by a conflicting writer).
func (s *Store) Commit(key string, startTS, commitTS uint64) error {
	return s.CommitBytes([]byte(key), startTS, commitTS)
}

// CommitBytes is Commit for a key held as bytes.
func (s *Store) CommitBytes(key []byte, startTS, commitTS uint64) error {
	var err error
	s.keys.EditBytes(key, func(e *keyEntry, ok bool) (*keyEntry, bool) {
		if !ok || !e.lock.held || e.lock.startTS != startTS {
			err = fmt.Errorf("mvcc: commit of %q at %d: lock gone", key, startTS)
			return e, ok
		}
		var val []byte
		if !e.lock.delete_ {
			val = e.lock.value
		}
		e.lock = lock{}
		e.versions = append(e.versions, version{
			startTS: startTS, commitTS: commitTS, value: val,
		})
		return e, true
	})
	return err
}

// Rollback removes the transaction's lock on key, if held.
func (s *Store) Rollback(key string, startTS uint64) { s.RollbackBytes([]byte(key), startTS) }

// RollbackBytes is Rollback for a key held as bytes.
func (s *Store) RollbackBytes(key []byte, startTS uint64) {
	s.keys.EditBytes(key, func(e *keyEntry, ok bool) (*keyEntry, bool) {
		if !ok {
			return e, false
		}
		if e.lock.held && e.lock.startTS == startTS {
			e.lock = lock{}
		}
		// Drop entries a rollback leaves empty.
		return e, e.lock.held || len(e.versions) > 0
	})
}

// Locked reports whether key currently carries a lock.
func (s *Store) Locked(key string) bool {
	locked := false
	s.keys.View(key, func(e *keyEntry, ok bool) {
		locked = ok && e.lock.held
	})
	return locked
}

// Keys returns the number of distinct keys with at least one live version.
func (s *Store) Keys() int {
	n := 0
	s.keys.Range(func(_ string, e *keyEntry) bool {
		if len(e.versions) > 0 && e.versions[len(e.versions)-1].value != nil {
			n++
		}
		return true
	})
	return n
}

// Bytes returns the resident size of the newest live versions (the state
// a database retains; older versions are GC'd in real systems, and Fig 12
// counts only live state for TiDB).
func (s *Store) Bytes() int64 {
	var total int64
	s.keys.Range(func(k string, e *keyEntry) bool {
		if len(e.versions) > 0 && e.versions[len(e.versions)-1].value != nil {
			total += int64(len(k) + len(e.versions[len(e.versions)-1].value))
		}
		return true
	})
	return total
}

// Scan returns up to limit live keys ≥ start at snapshot ts, in order.
// Candidates are collected under the stripe read locks; sorting happens
// outside any lock.
func (s *Store) Scan(start string, limit int, ts uint64) []string {
	var keys []string
	s.keys.Range(func(k string, _ *keyEntry) bool {
		if k >= start {
			keys = append(keys, k)
		}
		return true
	})
	slices.Sort(keys)
	out := keys[:0]
	for _, k := range keys {
		live := false
		s.keys.View(k, func(e *keyEntry, ok bool) {
			if !ok {
				return
			}
			if v, err := readVersion(e.versions, ts); err == nil && v != nil {
				live = true
			}
		})
		if live {
			out = append(out, k)
			if len(out) == limit {
				break
			}
		}
	}
	return out
}
