// Package storage defines the key-value engine contract shared by every
// system in the repository, mirroring the paper's storage dimension: the
// blockchains run over an LSM engine (LevelDB/RocksDB in Fabric, Quorum and
// TiKV) while etcd runs over a copy-on-write B+tree (BoltDB). Both engine
// families live in subpackages and satisfy the Engine interface defined
// here, so systems can be assembled with either.
//
// Ownership: a value handed to an engine (Engine.Put, Batch.ApplyBatch) is
// the engine's from then on. The engine keeps the slice itself, so the
// caller must not modify it afterwards; a caller that reuses a buffer copies
// it before handing it over. Keys are the other way round: an engine never
// writes into a key it is handed and copies every key it keeps, so a key
// may be a view of bytes the caller still owns (see KeyView). No engine
// writes into a value it stores, so values read back may be shared: the
// delta checkpointer (recovery.Checkpointer) relies on it, handing the
// values it reads to its worker uncopied while later blocks overwrite
// their keys.
package storage

import (
	"errors"
	"fmt"
	"unsafe"
)

// ErrNotFound is returned by Get when the key has never been written or was
// deleted.
var ErrNotFound = errors.New("storage: key not found")

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("storage: engine closed")

// Engine is an ordered key-value store. Implementations must be safe for
// concurrent use by multiple goroutines.
type Engine interface {
	// Get returns the value stored under key, or ErrNotFound.
	Get(key []byte) ([]byte, error)
	// Put stores value under key, replacing any previous value. The engine
	// keeps value itself: the caller must not modify it afterwards. key is
	// only read; the engine copies it if it keeps it.
	Put(key, value []byte) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key []byte) error
	// NewIterator returns an iterator positioned before the first key that
	// is ≥ start. If start is nil, iteration begins at the first key. The
	// iterator observes a snapshot taken at creation time where the engine
	// supports it; at minimum it must never observe a torn write.
	NewIterator(start []byte) Iterator
	// ApproxSize returns the engine's approximate resident data size in
	// bytes; the storage experiments (Fig 12) read it.
	ApproxSize() int64
	// Len returns the number of live keys.
	Len() int
	// Close releases resources. Operations after Close return ErrClosed.
	Close() error
}

// Iterator walks keys in ascending byte order.
type Iterator interface {
	// Next advances to the next entry and reports whether one exists.
	Next() bool
	// Key returns the current key. The slice is only valid until the next
	// call to Next.
	Key() []byte
	// Value returns the current value, valid until the next call to Next.
	Value() []byte
	// Close releases the iterator.
	Close() error
}

// Batch is an optional interface engines may implement to apply a set of
// writes atomically; the block-commit paths use it when present.
type Batch interface {
	// ApplyBatch applies all writes (value == nil means delete) atomically.
	// Like Put, it keeps each value and only reads each key; the writes
	// slice itself is not retained, so the caller may reuse it.
	ApplyBatch(writes []Write) error
}

// Write is one entry of a batch. A nil Value deletes the key. The engine
// keeps Value (see Batch); Key may be a view.
type Write struct {
	Key   []byte
	Value []byte
}

// ApplyWrites applies a batch through the Batch fast path when the engine
// provides one, falling back to individual operations. The fallback stops
// at the first failed write and returns an error naming its key, so a
// partial apply is never silently reported as success.
func ApplyWrites(e Engine, writes []Write) error {
	if b, ok := e.(Batch); ok {
		return b.ApplyBatch(writes)
	}
	for _, w := range writes {
		var err error
		if w.Value == nil {
			err = e.Delete(w.Key)
		} else {
			err = e.Put(w.Key, w.Value)
		}
		if err != nil {
			return fmt.Errorf("storage: apply write %q: %w", w.Key, err)
		}
	}
	return nil
}

// KeyView returns the bytes of s without copying them, for handing a string
// key to an Engine or an mpt.Trie. It is sound because neither ever writes
// into a key it is handed and each copies every key it keeps. The slice
// shares the string's immutable bytes: writing into it, anywhere, is
// undefined behaviour.
func KeyView(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }
