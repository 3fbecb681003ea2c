// Key-based dependency scheduling: the intra-block parallelism engine.
//
// Both entry points replace a serial in-block-order loop with waves of
// provably independent transactions, and both are required to reproduce
// the serial loop's observable outcome exactly — identical verdicts,
// identical final state. The equivalence tests fuzz them against the
// serial references.
package pipeline

import (
	"slices"

	"dichotomy/internal/contract"
	"dichotomy/internal/occ"
	"dichotomy/internal/txn"
)

// Waves partitions block indices [0, n) into dependency levels over the
// transactions' declared read/write sets. A transaction lands strictly
// after every earlier transaction whose writes intersect its reads (the
// read-after-write edges that carry verdict and value dependencies), and
// no earlier than any earlier transaction that reads a key it writes (the
// anti-dependency that would otherwise let a later writer's version leak
// into an earlier reader's validation view — same wave is safe because a
// wave's writes publish only after the whole wave completes). Writers of
// the same key need no mutual edge: applications resolve write-write
// order by transaction index. Each wave lists its indices in ascending
// order; processing waves in order with per-wave publication is
// equivalent to the serial block order.
func Waves(sets []txn.RWSet) [][]int { return new(Validator).Waves(sets) }

// ValidateWaves runs Fabric-style MVCC read-set validation over a block
// with intra-block parallelism: transactions are scheduled into
// non-conflicting waves (Waves), each wave validates concurrently across
// the worker pool against the frozen overlay, and the wave's valid writes
// publish before the next wave starts. The verdicts are identical to
// occ.ValidateBlock's serial in-block-order pass — the equivalence the
// pipeline tests prove — because every transaction still observes exactly
// the writes of valid earlier-index transactions, no more and no less.
func ValidateWaves(sets []txn.RWSet, base occ.VersionSource, blockNum uint64, workers int) []occ.AbortReason {
	return new(Validator).ValidateWaves(sets, base, blockNum, workers)
}

// Validator runs ValidateWaves block after block and keeps its per-block
// scratch — the levels, the reader and writer maps, the waves, the
// verdicts and the overlay — for the next block, as Executor does for
// re-execution, so a peer's MVCC check allocates nothing once the scratch
// has grown to its blocks. It holds no key or set of a block past the call
// that validated it: the maps are cleared before each call returns. The
// zero value is ready. A Validator serves one block at a time, and what
// Waves and ValidateWaves return is valid until its next call.
type Validator struct {
	levels    []int
	maxWriter map[string]int // key → highest level of any writer so far
	maxReader map[string]int // key → highest level of any reader so far
	waves     [][]int
	verdicts  []occ.AbortReason
	overlay   waveOverlay
}

// Waves is the free Waves over the Validator's scratch.
func (v *Validator) Waves(sets []txn.RWSet) [][]int {
	if v.maxWriter == nil {
		v.maxWriter, v.maxReader = make(map[string]int), make(map[string]int)
	}
	levels := slices.Grow(v.levels[:0], len(sets))[:len(sets)]
	maxWriter, maxReader := v.maxWriter, v.maxReader
	top := 0
	for i, rw := range sets {
		lvl := 1
		for _, r := range rw.Reads {
			if l, ok := maxWriter[r.Key]; ok && l >= lvl {
				lvl = l + 1
			}
		}
		for _, w := range rw.Writes {
			if l, ok := maxReader[w.Key]; ok && l > lvl {
				lvl = l
			}
		}
		levels[i] = lvl
		for _, r := range rw.Reads {
			if maxReader[r.Key] < lvl {
				maxReader[r.Key] = lvl
			}
		}
		for _, w := range rw.Writes {
			if maxWriter[w.Key] < lvl {
				maxWriter[w.Key] = lvl
			}
		}
		top = max(top, lvl)
	}
	clear(maxWriter)
	clear(maxReader)
	// v.waves keeps every wave it ever built, each with its capacity.
	for len(v.waves) < top {
		v.waves = append(v.waves, nil)
	}
	waves := v.waves[:top]
	for l := range waves {
		waves[l] = waves[l][:0]
	}
	for i, lvl := range levels {
		waves[lvl-1] = append(waves[lvl-1], i)
	}
	v.levels = levels
	return waves
}

// waveOverlay layers the block's published writes over the committed
// version source. Entries remember the writer index so write-write races
// across waves resolve to the highest index, exactly as serially
// overwriting the overlay in block order would.
type waveOverlay struct {
	base  occ.VersionSource
	dirty map[string]waveEntry
}

type waveEntry struct {
	ver txn.Version
	idx int
}

// CommittedVersion implements occ.VersionSource. It is called
// concurrently by a validation wave, which is safe because publication
// only happens between waves.
func (o *waveOverlay) CommittedVersion(key string) (txn.Version, bool) {
	if e, ok := o.dirty[key]; ok {
		return e.ver, true
	}
	return o.base.CommittedVersion(key)
}

// ValidateWaves is the free ValidateWaves over the Validator's scratch.
func (v *Validator) ValidateWaves(sets []txn.RWSet, base occ.VersionSource, blockNum uint64, workers int) []occ.AbortReason {
	// Every index below len(sets) lands in one wave, so every verdict is
	// written before it is returned.
	verdicts := slices.Grow(v.verdicts[:0], len(sets))[:len(sets)]
	v.verdicts = verdicts
	if len(sets) == 0 {
		return verdicts
	}
	overlay := &v.overlay
	overlay.base = base
	if overlay.dirty == nil {
		overlay.dirty = make(map[string]waveEntry)
	}
	for _, wave := range v.Waves(sets) {
		if workers <= 1 {
			// Parallel's plain loop, without the closure it would allocate.
			for _, i := range wave {
				verdicts[i] = occ.Validate(sets[i], overlay)
			}
		} else {
			Parallel(workers, len(wave), func(m int) {
				i := wave[m]
				verdicts[i] = occ.Validate(sets[i], overlay)
			})
		}
		for _, i := range wave {
			if verdicts[i] != occ.OK {
				continue
			}
			for _, w := range sets[i].Writes {
				if e, ok := overlay.dirty[w.Key]; ok && e.idx > i {
					continue
				}
				overlay.dirty[w.Key] = waveEntry{
					ver: txn.Version{BlockNum: blockNum, TxNum: uint32(i)},
					idx: i,
				}
			}
		}
	}
	clear(overlay.dirty)
	overlay.base = nil
	return verdicts
}

// ExecFunc re-executes transaction i of a block against the given
// committed-state view and returns its effect. It must be deterministic —
// the same view must always produce the same result — which is the
// property order-execute replication already relies on.
type ExecFunc func(i int, view contract.StateReader) (txn.RWSet, error)

// execOverlay layers the block's successful writes (values and the
// versions the serial path would have staged) over the base view.
type execOverlay struct {
	base  contract.StateReader
	dirty map[string]execEntry
}

type execEntry struct {
	value []byte
	ver   txn.Version
	del   bool
}

// GetState implements contract.StateReader with read-your-earlier-
// block-writes semantics, mirroring state.Block's overlay.
func (o *execOverlay) GetState(key string) ([]byte, txn.Version, error) {
	if e, ok := o.dirty[key]; ok {
		if e.del {
			return nil, txn.Version{}, contract.ErrNotFound
		}
		return e.value, e.ver, nil
	}
	return o.base.GetState(key)
}

// readRecorder captures the keys one speculative execution actually read.
// Conflict detection must not rely on the RWSet the executor returns —
// contract engines discard it on error (an insufficient-funds abort, say),
// and exactly such a transaction can flip outcome once an earlier write
// publishes — so the view itself remembers every key touched.
type readRecorder struct {
	base contract.StateReader
	keys []string
}

// GetState implements contract.StateReader.
func (r *readRecorder) GetState(key string) ([]byte, txn.Version, error) {
	r.keys = append(r.keys, key)
	return r.base.GetState(key)
}

// Executor runs ExecuteBlock block after block and keeps its per-block
// scratch — the write sets and errors it returns, the overlay and the read
// recorders — for the next block, so a replica's re-execution allocates
// only what its contracts do. The zero value is ready. An Executor serves
// one block at a time, and what ExecuteBlock returns is valid until its
// next call.
type Executor struct {
	rws       []txn.RWSet
	errs      []error
	overlay   execOverlay
	recorders []readRecorder
}

// ExecuteBlock re-executes a block of n transactions with speculative
// intra-block parallelism — Quorum's "double execution", minus the serial
// bottleneck. Every transaction first executes concurrently against the
// block's base view; then a serial fix-up pass walks the block in index
// order and keeps a speculative result only if its read keys are disjoint
// from the writes of every successful earlier transaction. A conflicted
// transaction re-executes against the exact overlay the serial loop would
// have shown it. Determinism of run makes the outcome identical to the
// serial loop on every replica: an unconflicted speculation read exactly
// the values the serial view held, so by induction it produced the serial
// result. Write-disjoint transactions — the common case off the hot keys
// — therefore execute fully in parallel.
//
// The returned write sets stage in index order (last writer of a key
// wins), exactly as the serial loop staged them.
func (x *Executor) ExecuteBlock(n, workers int, blockNum uint64, base contract.StateReader, run ExecFunc) ([]txn.RWSet, []error) {
	// Every index below n is written before it is returned.
	x.rws, x.errs = slices.Grow(x.rws[:0], n)[:n], slices.Grow(x.errs[:0], n)[:n]
	rws, errs := x.rws, x.errs
	if n == 0 {
		return rws, errs
	}
	overlay := &x.overlay
	overlay.base = base
	if overlay.dirty == nil {
		overlay.dirty = make(map[string]execEntry)
	}
	clear(overlay.dirty)
	if workers <= 1 || n == 1 {
		// Serial baseline: one overlay, strict block order.
		for i := 0; i < n; i++ {
			rws[i], errs[i] = run(i, overlay)
			publish(overlay, rws[i], errs[i], blockNum, i)
		}
		return rws, errs
	}

	// Each recorder keeps its keys' capacity from block to block.
	x.recorders = slices.Grow(x.recorders[:0], n)[:n]
	recorders := x.recorders
	for i := range recorders {
		clear(recorders[i].keys)
		recorders[i] = readRecorder{base: base, keys: recorders[i].keys[:0]}
	}
	Parallel(workers, n, func(i int) {
		rws[i], errs[i] = run(i, &recorders[i])
	})
	for i := 0; i < n; i++ {
		conflicted := false
		for _, k := range recorders[i].keys {
			if _, ok := overlay.dirty[k]; ok {
				conflicted = true
				break
			}
		}
		if conflicted {
			rws[i], errs[i] = run(i, overlay)
		}
		publish(overlay, rws[i], errs[i], blockNum, i)
	}
	return rws, errs
}

// publish applies one successful transaction's writes to the overlay at
// the version the serial staging path would install.
func publish(o *execOverlay, rw txn.RWSet, err error, blockNum uint64, i int) {
	if err != nil {
		return
	}
	for _, w := range rw.Writes {
		o.dirty[w.Key] = execEntry{
			value: w.Value,
			ver:   txn.Version{BlockNum: blockNum, TxNum: uint32(i)},
			del:   w.Value == nil,
		}
	}
}
