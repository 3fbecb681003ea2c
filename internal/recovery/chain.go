package recovery

import (
	"bytes"
	"fmt"
	"slices"

	"dichotomy/internal/txn"
)

// This file generalizes the full+delta checkpoint chain beyond
// state.Store. TiDB region replicas and Spanner shard replicas carry
// their durable state in component-specific structures (an MVCC version
// store, a plain replicated map), yet their crash/recover lifecycles
// need exactly the chain format PR 5 built: full snapshots, linked
// deltas, CRC-verified files, corrupt-file fallback, whole-chain
// pruning. ChainWriter exposes that machinery over a dump callback —
// the component serializes itself however it likes; the writer owns
// diffing, folding, file layout, and pruning.

// ChainWriter maintains one on-disk checkpoint chain for a component
// that can dump its complete logical content as key → (value, version)
// records. It is NOT safe for concurrent use: systems call it from the
// single goroutine that applies the component's mutations, which also
// makes the dump race-free by construction.
type ChainWriter struct {
	opts Options
	// prev is the content of the newest checkpoint — the base the next
	// delta diffs against. Held in memory: the components using this
	// writer are per-region/per-shard slices of state, far smaller than
	// a whole node's store.
	prev map[string]chainEntry
	last uint64
	// restoredBytes is the checkpoint-file volume Open read; recovery
	// stats report it.
	restoredBytes int64
	hasFull       bool
	sinceFull     int
}

// OpenChainWriter loads the newest intact chain in opts.Dir (if any) and
// returns a writer seeded with it: LastHeight reports the restore point
// and Restore feeds its content to the caller. Corrupt files degrade the
// restore point exactly as Restore for stores does — an intact prefix,
// never a torn or partial state.
func OpenChainWriter(opts Options) (*ChainWriter, error) {
	opts = opts.withDefaults()
	if opts.Interval == 0 {
		opts.Interval = 1
	}
	m, tip, bytesRead, err := loadChain(opts.Dir, 0)
	if err != nil {
		return nil, fmt.Errorf("recovery: open chain %s: %w", opts.Dir, err)
	}
	if m == nil {
		m = make(map[string]chainEntry)
	}
	return &ChainWriter{
		opts:          opts,
		prev:          m,
		last:          tip,
		restoredBytes: bytesRead,
		hasFull:       tip > 0,
	}, nil
}

// LastHeight returns the height of the newest checkpoint — on a fresh
// open, the restore point (0 when no checkpoint exists).
func (w *ChainWriter) LastHeight() uint64 { return w.last }

// RestoredBytes returns the checkpoint bytes read when the writer was
// opened.
func (w *ChainWriter) RestoredBytes() int64 { return w.restoredBytes }

// Restore feeds every entry of the loaded restore point to apply, in
// sorted key order. Call it once, right after OpenChainWriter, before
// the component starts applying new mutations.
func (w *ChainWriter) Restore(apply func(key string, value []byte, ver txn.Version) error) error {
	keys := make([]string, 0, len(w.prev))
	for k := range w.prev {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		e := w.prev[k]
		if err := apply(k, e.value, e.ver); err != nil {
			return err
		}
	}
	return nil
}

// MaybeCheckpoint writes a checkpoint when height has advanced at least
// Interval past the previous one; otherwise it is a cheap no-op. dump
// must emit the component's complete logical content as of height; the
// writer copies values, so the component may reuse buffers.
func (w *ChainWriter) MaybeCheckpoint(height uint64, dump func(emit func(key string, value []byte, ver txn.Version))) error {
	if height < w.last+w.opts.Interval {
		return nil
	}
	return w.Checkpoint(height, dump)
}

// Checkpoint writes one checkpoint at height unconditionally (unless
// height has not advanced past the last one). The chain's first
// checkpoint and, in delta mode, every FullEvery-th one are full
// snapshots; the rest are deltas diffed against the previous content.
func (w *ChainWriter) Checkpoint(height uint64, dump func(emit func(key string, value []byte, ver txn.Version))) error {
	if height <= w.last {
		return nil
	}
	cur := make(map[string]chainEntry, len(w.prev))
	dump(func(key string, value []byte, ver txn.Version) {
		cur[key] = chainEntry{value: bytes.Clone(value), ver: ver}
	})
	full := w.opts.Mode == ModeFull || !w.hasFull || w.sinceFull+1 >= w.opts.FullEvery
	if full {
		if _, err := writeFullFromMap(w.opts.Dir, height, cur); err != nil {
			return err
		}
		w.hasFull = true
		w.sinceFull = 0
	} else {
		if _, err := writeDelta(w.opts.Dir, height, w.last, diffChain(w.prev, cur)); err != nil {
			return err
		}
		w.sinceFull++
	}
	w.prev = cur
	w.last = height
	pruneChains(w.opts.Dir, w.opts.Keep)
	return nil
}

// diffChain computes the delta entries that turn prev into cur: changed
// and new keys as live records, vanished keys as tombstones, sorted so
// delta files are deterministic.
func diffChain(prev, cur map[string]chainEntry) []deltaEntry {
	var out []deltaEntry
	for k, e := range cur {
		if p, ok := prev[k]; ok && p.ver == e.ver && bytes.Equal(p.value, e.value) {
			continue
		}
		out = append(out, deltaEntry{key: k, value: e.value, ver: e.ver, live: true})
	}
	for k := range prev {
		if _, ok := cur[k]; !ok {
			out = append(out, deltaEntry{key: k, live: false})
		}
	}
	slices.SortFunc(out, func(a, b deltaEntry) int {
		return bytes.Compare([]byte(a.key), []byte(b.key))
	})
	return out
}
