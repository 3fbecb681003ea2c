package recovery

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
)

// ChainWriter maintains one on-disk checkpoint chain for a component whose
// durable state is not a state.Store — a TiDB region's MVCC store, a
// Spanner shard's replicated map — but which can dump its complete logical
// content as key → value records. The component serializes itself however
// it likes; the writer diffs each dump against the previous one and leaves
// the rest to the chain. It is NOT safe for concurrent use: systems call it
// from the single goroutine that applies the component's mutations, which
// also makes the dump race-free by construction.
type ChainWriter struct {
	// chain.content is the content of the newest checkpoint, the base the
	// next delta diffs against. Like Checkpointer's worker, the writer
	// keeps that one copy of its component's state plus an encode buffer
	// the size of its largest file.
	chain chain
	// restoredBytes is the checkpoint-file volume Open read; recovery
	// stats report it.
	restoredBytes int64
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
	w := &ChainWriter{
		chain:         chain{opts: opts, tip: tip, seeded: tip > 0, content: m},
		restoredBytes: bytesRead,
	}
	w.chain.sweep()
	return w, nil
}

// LastHeight returns the height of the newest checkpoint — on a fresh
// open, the restore point (0 when no checkpoint exists).
func (w *ChainWriter) LastHeight() uint64 { return w.chain.tip }

// RestoredBytes returns the checkpoint bytes read when the writer was
// opened.
func (w *ChainWriter) RestoredBytes() int64 { return w.restoredBytes }

// Restore feeds every entry of the loaded restore point to apply, in
// sorted key order. Call it once, right after OpenChainWriter, before
// the component starts applying new mutations.
func (w *ChainWriter) Restore(apply func(key string, value []byte) error) error {
	for _, k := range sortedKeys(w.chain.content) {
		if err := apply(k, w.chain.content[k].value); err != nil {
			return err
		}
	}
	return nil
}

// MaybeCheckpoint writes a checkpoint when height has advanced at least
// Interval past the previous one; otherwise it is a cheap no-op. dump
// must emit the component's complete logical content as of height; the
// writer copies values, so the component may reuse buffers.
func (w *ChainWriter) MaybeCheckpoint(height uint64, dump func(emit func(key string, value []byte))) error {
	if !w.chain.due(height) {
		return nil
	}
	return w.Checkpoint(height, dump)
}

// Checkpoint writes one checkpoint at height unconditionally (unless
// height has not advanced past the last one). The writer holds the
// complete state, so whenever the chain asks for a full snapshot — its
// first checkpoint and, in delta mode, every FullEvery-th one — the dump
// is written as it is; the rest are deltas diffed against the previous
// content. A value equal to the previous content's keeps that copy, so a
// checkpoint copies only what changed. A failed write leaves the chain
// where it was.
func (w *ChainWriter) Checkpoint(height uint64, dump func(emit func(key string, value []byte))) error {
	if height <= w.chain.tip {
		return nil
	}
	prev := w.chain.content
	cur := make(map[string]chainEntry, len(prev))
	dump(func(key string, value []byte) {
		if p, ok := prev[key]; ok && bytes.Equal(p.value, value) {
			cur[key] = p
		} else {
			cur[key] = chainEntry{value: bytes.Clone(value)}
		}
	})
	s := w.chain.plan(height)
	records := stateRecords(cur)
	if s.kind == stepDelta {
		records = changedRecords(diffChain(prev, cur))
	}
	if _, err := w.chain.write(s, records); err != nil {
		return err
	}
	w.chain.advance(s)
	w.chain.content = cur
	return nil
}

// diffChain computes the delta entries that turn prev into cur: changed
// and new keys as live records, vanished keys as tombstones, sorted so
// delta files are deterministic.
func diffChain(prev, cur map[string]chainEntry) []entry {
	var out []entry
	for k, e := range cur {
		if p, ok := prev[k]; ok && p.ver == e.ver && bytes.Equal(p.value, e.value) {
			continue
		}
		out = append(out, entry{key: k, value: e.value, ver: e.ver, live: true})
	}
	for k := range prev {
		if _, ok := cur[k]; !ok {
			out = append(out, entry{key: k, live: false})
		}
	}
	slices.SortFunc(out, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	return out
}
