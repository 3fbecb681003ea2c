// Package recovery is the durable checkpoint and crash-recovery layer.
//
// The paper's dichotomy hinges on where the source of truth lives: a
// database restarts from checkpointed state plus a pruned log, while a
// blockchain node can always rebuild from the replicated ledger. This
// package supplies both halves over the shared state layer:
//
//   - A Checkpointer serializes a block-consistent snapshot of a
//     state.Store — committed values AND the per-key txn.Version metadata
//     that otherwise lives only in memory — every Interval blocks. It is
//     driven from a system's committer goroutine (the pipeline's Apply/
//     Seal stage), where the store is between blocks by construction, so
//     a checkpoint can never tear a block.
//   - Restore rebuilds a fresh store from the newest intact checkpoint at
//     or below a crash height, falling back across corrupt files the way
//     WAL replay discards a torn tail.
//   - Replay drives the blocks above the checkpoint back through a
//     system-supplied apply function — systems pass closures over their
//     live pipeline stages, so recovery exercises the exact validate/
//     apply code of normal operation against a ledger or shared-log tail.
//
// Each decision lives in one place. file.go is the one codec for the two
// kinds of checkpoint file, which share a layout. chain.go is the chain: a
// full snapshot plus the deltas linking onto it — what is written next,
// the content it materializes, how a chain loads back, what may be
// pruned. Two writers feed it, and differ only in their traffic:
// Checkpointer (this file) hands over a store's dirty set and leaves the
// file work to a worker goroutine, which overlays each set onto the
// chain's content; ChainWriter (chainwriter.go) serves components that are
// not a store — a TiDB region, a Spanner shard — by diffing each complete
// dump against that content, synchronously on the goroutine that applies
// their log, and then making the dump the content. Either way the content
// at the chain's tip is in memory, so a fold is written from it and only a
// restore reads a chain back.
//
// The chain is the repo's one durable format, and its contract is that a
// checkpoint whose write returned survives a power cut: each file is
// synced before its rename, and its directory after it (fsys.go names
// every change a write makes). A cut at any point leaves Restore a height
// some write reached, with exactly that height's state, and no lower than
// the newest write that had returned; cut_test.go checks both after every
// file operation of a recorded write sequence.
package recovery

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"dichotomy/internal/state"
	"dichotomy/internal/txn"
)

// storeRecords is a full's source when the complete state is a store: its
// committed values and versions, in the engine's key order. The caller must
// guarantee the store sits at a block boundary for the duration — the
// committer goroutine between blocks, or a quiesced store.
func storeRecords(st *state.Store) recordSource {
	return func(put func(entry)) {
		st.Dump(func(key string, value []byte, ver txn.Version) bool {
			put(entry{key: key, value: value, ver: ver, live: true})
			return true
		})
	}
}

// WriteCheckpoint serializes st's committed values and versions at the
// given height into dir as a full snapshot, pruning nothing, and returns
// the file's size in bytes. st must sit at a block boundary (storeRecords).
func WriteCheckpoint(dir string, height uint64, st *state.Store) (int64, error) {
	w := newFileEncoder(chainFile{height: height})
	storeRecords(st)(w.put)
	return w.commit(dir)
}

// Mode selects the checkpoint strategy.
type Mode int

const (
	// ModeFull serializes the whole store every interval, synchronously
	// on the committer — durability cost O(store) per checkpoint. The
	// baseline the delta sweep compares against.
	ModeFull Mode = iota
	// ModeDelta serializes only the keys dirtied since the previous
	// checkpoint. The committer's cost is materializing the dirty set
	// (O(block writes)); encoding, file I/O, fsync, compaction, and
	// pruning all happen on a checkpoint worker goroutine.
	ModeDelta
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeDelta {
		return "delta"
	}
	return "full"
}

// ParseMode parses "full" or "delta".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "full":
		return ModeFull, nil
	case "delta":
		return ModeDelta, nil
	}
	return ModeFull, fmt.Errorf("recovery: unknown checkpoint mode %q (want full or delta)", s)
}

// Options configures a Checkpointer.
type Options struct {
	// Dir is the checkpoint directory.
	Dir string
	// Interval is how many blocks between checkpoints (must be ≥ 1).
	Interval uint64
	// Keep is how many recent checkpoint files to retain (≤ 0 keeps 2).
	// Pruning extends retention downward to the full snapshot the oldest
	// retained delta depends on, so a kept delta is never orphaned.
	Keep int
	// Mode selects full or delta checkpoints.
	Mode Mode
	// FullEvery, in delta mode, folds the chain into a fresh full
	// snapshot every FullEvery-th checkpoint (≤ 0 selects 8); the fold
	// runs on the worker, off the commit path, and is written from the
	// content the worker keeps in memory, so it also writes over a delta
	// damaged on disk. 1 degenerates to worker-side full checkpoints.
	FullEvery int
}

func (o Options) withDefaults() Options {
	if o.Keep <= 0 {
		o.Keep = 2
	}
	if o.FullEvery <= 0 {
		o.FullEvery = 8
	}
	return o
}

// deltaJob is one materialized checkpoint handed from the committer to
// the worker: the planned step and the dirty entries as of its height, so
// the worker never touches the store. The entries' values are the engine's
// own slices: no engine writes into a value it stores (storage.Engine's
// ownership rule), so a later block that overwrites a key replaces its
// slice and leaves the one the job holds as it was at the job's height.
type deltaJob struct {
	step
	entries []entry
}

// Checkpointer writes periodic checkpoints of a store. Systems call
// MaybeCheckpoint from their committer goroutine after sealing each
// block. In full mode the write is synchronous there — the commit-path
// cost the recovery experiment's full rows measure. In delta mode the
// committer only materializes the dirty set and enqueues it; a worker
// goroutine does the serialization and file I/O, so block sealing never
// stalls for a disk write. PauseNs reports the measured commit-path
// stall per checkpoint in both modes.
type Checkpointer struct {
	st *state.Store

	mu                        sync.Mutex
	cond                      *sync.Cond // signals the worker and Flush waiters
	chain                     chain      // counters under mu; content and enc the file writer's
	count                     int
	lastBytes, totalBytes     int64
	lastPauseNs, totalPauseNs int64
	lastErr                   error
	jobs                      []deltaJob
	busy                      bool
	closed                    bool
	wg                        sync.WaitGroup
}

// NewCheckpointer builds a checkpointer over st. In delta mode it starts
// the checkpoint worker; call Close to stop it (Close discards queued
// work, like the crash it models — Flush first for a clean drain).
func NewCheckpointer(st *state.Store, opts Options) (*Checkpointer, error) {
	if opts.Interval == 0 {
		return nil, fmt.Errorf("recovery: checkpoint interval must be ≥ 1")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: mkdir: %w", err)
	}
	c := &Checkpointer{st: st, chain: chain{opts: opts}}
	c.chain.sweep()
	c.cond = sync.NewCond(&c.mu)
	if opts.Mode == ModeDelta {
		// Dirty tracking is opt-in on the store (non-checkpointing runs
		// skip the bookkeeping); a delta checkpointer must see every
		// write from here on. Callers construct the checkpointer before
		// traffic — recovery enables tracking even earlier, before the
		// restore's writes (see RestoreCheckpointer).
		st.EnableDirtyTracking()
		c.wg.Add(1)
		go c.runWorker()
	}
	return c, nil
}

// RestoreCheckpointer begins a recovery's storage half: it loads the
// newest intact checkpoint chain in opts.Dir with tip ≤ maxHeight (0 =
// newest; a crash at height c means only checkpoints at or below c exist)
// into st, which must be empty, and binds a fresh checkpointer to it. The
// stats carry the restore half; the caller replays the replicated tail
// above stats.CheckpointHeight.
func RestoreCheckpointer(st *state.Store, opts Options, maxHeight uint64) (*Checkpointer, Stats, error) {
	var stats Stats
	start := time.Now()
	if opts.Mode == ModeDelta {
		// Enabled before the restore so the restored keys land in the
		// dirty set: restore itself goes through ApplyBlock, so the set
		// covers everything it applied.
		st.EnableDirtyTracking()
	}
	var err error
	stats.CheckpointHeight, stats.CheckpointBytes, err = Restore(st, opts.Dir, maxHeight)
	if err != nil {
		return nil, stats, err
	}
	// The fresh checkpointer's chain is unseeded, so its first delta-mode
	// checkpoint is a chain-seeding full built from that dirty set — it
	// never links onto stale pre-crash files above the restored height.
	ckpt, err := NewCheckpointer(st, opts)
	stats.RestoreDuration = time.Since(start)
	return ckpt, stats, err
}

// MaybeCheckpoint takes a checkpoint if height has advanced a full
// interval past the last one. It reports whether a checkpoint was
// taken. Errors are returned and also retained for LastErr, so a
// committer that cannot stop may keep going and let the operator (or a
// test) observe the failure.
func (c *Checkpointer) MaybeCheckpoint(height uint64) (bool, error) {
	c.mu.Lock()
	due := c.chain.due(height)
	c.mu.Unlock()
	if !due {
		return false, nil
	}
	return true, c.Checkpoint(height)
}

// Checkpoint takes a checkpoint at height unconditionally. In full mode
// the whole store is serialized and pruned synchronously; in delta mode
// the dirty set is materialized — its keys and the engine's value slices,
// aliased, not copied (deltaJob) — and handed to the worker. Either way the
// store's dirty set resets — the next delta accumulates from here — and
// the pause recorded is the work that stayed on the caller, the committer.
func (c *Checkpointer) Checkpoint(height uint64) error {
	delta := c.chain.opts.Mode == ModeDelta
	start := time.Now()
	c.mu.Lock()
	s := c.chain.plan(height)
	c.mu.Unlock()
	var entries []entry
	var n int64
	var err error
	if delta {
		entries = make([]entry, 0, c.st.DirtyStats().Keys)
		c.st.DumpDirty(func(key string, value []byte, ver txn.Version, live bool) bool {
			entries = append(entries, entry{key: key, value: value, ver: ver, live: live})
			return true
		})
	} else {
		n, err = c.chain.write(s, storeRecords(c.st))
	}
	c.st.ResetDirty()

	c.mu.Lock()
	defer c.mu.Unlock()
	if delta && c.closed {
		err = fmt.Errorf("recovery: checkpointer closed") // and its worker gone
	}
	pause := time.Since(start).Nanoseconds()
	c.lastPauseNs, c.totalPauseNs = pause, c.totalPauseNs+pause
	if err != nil {
		c.lastErr = err
		return err
	}
	c.chain.advance(s)
	c.count++
	if delta {
		c.jobs = append(c.jobs, deltaJob{step: s, entries: entries})
		c.cond.Broadcast()
	} else {
		c.lastBytes = n
		c.totalBytes += n
	}
	return nil
}

// runWorker drains the delta-job queue: encode, write, fsync, compact,
// prune — everything the commit path no longer waits for. The chain was
// advanced when each job was planned, so a job whose write fails leaves a
// hole the next job links across; the next write therefore covers it, as
// ChainWriter's advance-on-success does.
func (c *Checkpointer) runWorker() {
	defer c.wg.Done()
	var failed *deltaJob
	c.mu.Lock()
	for {
		for len(c.jobs) == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		job := c.jobs[0]
		c.jobs = c.jobs[1:]
		c.busy = true
		c.mu.Unlock()

		if failed != nil {
			// Based where failed was, with failed's entries ahead of its
			// own — a file's records apply in order, so a key's later one
			// wins — and a full or a fold whenever either was one. Taking
			// failed's entries into the content again changes nothing:
			// they are in it already, and no job came between.
			job.entries = append(slices.Clip(failed.entries), job.entries...)
			job.base, job.kind = failed.base, min(job.kind, failed.kind)
		}
		n, err := c.writeJob(job)

		c.mu.Lock()
		c.busy = false
		if err != nil {
			c.lastErr = err
			failed = &job
		} else {
			failed = nil
			c.lastBytes = n
			c.totalBytes += n
		}
		c.cond.Broadcast()
	}
}

// writeJob turns one materialized dirty set into a file. The chain's first
// dirty set is the complete state: dirt accumulates from store creation,
// and a restore re-dirties what it loads. Every set is taken into the
// chain's content before its file is written, so a fold writes that
// content and reads nothing back: a corrupt or missing delta behind it
// cannot stop it, and the full it lays down repairs the chain.
func (c *Checkpointer) writeJob(job deltaJob) (int64, error) {
	c.chain.take(job.step, job.entries)
	if job.kind == stepDelta {
		return c.chain.write(job.step, changedRecords(job.entries))
	}
	return c.chain.write(job.step, stateRecords(c.chain.content))
}

// Flush blocks until every enqueued delta job has been written to disk
// (a no-op in full mode, where checkpoints are synchronous). Callers
// that want the on-disk chain to reflect a quiesced store — the
// recovery experiment before it crashes a node — flush first.
func (c *Checkpointer) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for (len(c.jobs) > 0 || c.busy) && !c.closed {
		c.cond.Wait()
	}
}

// Close stops the checkpoint worker, discarding queued jobs — the same
// loss a crash inflicts, which Restore's chain fallback absorbs. A file
// mid-write finishes (atomic rename keeps it intact). Close is
// idempotent and safe on a full-mode checkpointer.
func (c *Checkpointer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.jobs = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// LastHeight returns the height of the most recent checkpoint (0 if none).
func (c *Checkpointer) LastHeight() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chain.tip
}

// LastErr returns the most recent checkpoint failure, if any.
func (c *Checkpointer) LastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Totals reports how many checkpoints were taken and the cumulative and
// most-recent file sizes written (delta-mode bytes are recorded by the
// worker as files land; Flush first for an exact count).
func (c *Checkpointer) Totals() (count int, lastBytes, totalBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count, c.lastBytes, c.totalBytes
}

// PauseNs reports the most recent and cumulative commit-path stall, in
// nanoseconds, measured across checkpoints: the full serialization in
// full mode, only the dirty-set materialization in delta mode.
func (c *Checkpointer) PauseNs() (lastNs, totalNs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPauseNs, c.totalPauseNs
}
