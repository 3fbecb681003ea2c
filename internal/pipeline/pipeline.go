// Package pipeline is the shared block-processing path of every modelled
// system that consumes an ordered stream of blocks: an explicit staged
// pipeline — decode → validate → apply → seal — replacing the private
// serial commit loops each system used to hand-roll.
//
// The stages carry the paper's two parallelism observations:
//
//   - Intra-block: validation work that is stateless per transaction
//     (endorsement signature checks, client authentication — the 42%-of-
//     validation cost Fig 8 identifies) fans out across a worker pool
//     (Parallel), and the state-dependent MVCC check runs as maximal
//     non-conflicting waves over a key-based dependency graph
//     (ValidateWaves) instead of strictly in block order — provably
//     committing the identical verdicts and final state.
//   - Cross-block: with Depth ≥ 2 the Validate stage of block N+1 overlaps
//     the Apply/Seal of block N on a separate committer goroutine. Apply
//     and Seal always run in strict block order, one block at a time, so
//     anything state-dependent belongs there.
package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Config shapes a pipeline: how wide the validation worker pool is and how
// many blocks may be in flight at once.
type Config struct {
	// Workers sizes the intra-block validation worker pool. ≤ 0 selects
	// GOMAXPROCS; 1 is the serial baseline every modelled system used to
	// hard-code.
	Workers int
	// Depth is the number of blocks in flight: 1 processes each block to
	// completion before decoding the next (no overlap); ≥ 2 lets Validate
	// of block N+1 overlap Apply/Seal of block N. ≤ 0 selects 2.
	Depth int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Depth <= 0 {
		c.Depth = 2
	}
	return c
}

// Stages are the hooks a system plugs into the pipeline. R is the raw
// record the ordered stream delivers (a sharedlog.Batch, a
// consensus.Entry); B is the system's decoded block.
type Stages[R, B any] struct {
	// Decode turns a raw record into a block; ok=false skips it (empty
	// batch, foreign handle). Runs on the intake goroutine. Required.
	Decode func(r R) (blk B, ok bool)
	// Validate runs the block's stateless checks. It may overlap the
	// previous block's Apply/Seal (Depth ≥ 2), so it must not touch
	// committed state. Use Parallel for per-transaction fan-out. Nil skips.
	Validate func(blk B)
	// Apply commits the block's effects to state. Strict block order, one
	// block at a time.
	Apply func(blk B)
	// Seal finalizes the block — ledger append, client notification.
	// Strict block order, immediately after Apply. Nil skips.
	Seal func(blk B)
}

// Pipeline drains an ordered stream of raw records through the stages.
type Pipeline[R, B any] struct {
	cfg Config
	st  Stages[R, B]
}

// New builds a pipeline from the config and stage hooks.
func New[R, B any](cfg Config, st Stages[R, B]) *Pipeline[R, B] {
	if st.Validate == nil {
		st.Validate = func(B) {}
	}
	if st.Seal == nil {
		st.Seal = func(B) {}
	}
	return &Pipeline[R, B]{cfg: cfg.withDefaults(), st: st}
}

// Workers returns the effective validation worker pool size.
func (p *Pipeline[R, B]) Workers() int { return p.cfg.Workers }

// Run pulls records with next until next reports false — stop closed, or
// the stream ended — pushing every record through the stages. next is the
// stream's reader: a consensus.Reader's or a sharedlog.Consumer's Next. Run
// blocks for the pipeline's lifetime — systems call it from their commit
// goroutine. On stop, blocks already past Validate are still applied and
// sealed before Run returns, so a block is never half-committed by
// shutdown.
func (p *Pipeline[R, B]) Run(next func(stop <-chan struct{}) (R, bool), stop <-chan struct{}) {
	commit := func(blk B) {
		p.st.Apply(blk)
		p.st.Seal(blk)
	}
	if p.cfg.Depth >= 2 {
		// A committer goroutine applies and seals in order while this
		// goroutine decodes and validates the blocks behind it. The
		// channel buffer holds Depth-2 validated blocks, so at most Depth
		// blocks are in flight: one validating, Depth-2 queued, one
		// applying.
		applyCh := make(chan B, p.cfg.Depth-2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func(commit func(B)) {
			defer wg.Done()
			for blk := range applyCh {
				commit(blk)
			}
		}(commit)
		defer func() {
			close(applyCh)
			wg.Wait()
		}()
		commit = func(blk B) { applyCh <- blk }
	}
	for {
		r, ok := next(stop)
		if !ok {
			return
		}
		if blk, ok := p.st.Decode(r); ok {
			p.st.Validate(blk)
			commit(blk)
		}
	}
}

// Parallel runs fn(i) for every i in [0, n) across at most workers
// goroutines (the caller's goroutine counts as one) and returns when all
// calls have finished. Work is claimed by atomic counter, so uneven item
// costs — one expensive signature check among cheap ones — still balance.
// workers ≤ 1 or n ≤ 1 degenerates to a plain loop with no goroutines.
func Parallel(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// ParallelChunks runs fn(lo, hi) over contiguous half-open chunks covering
// [0, n), at most one chunk per worker, in parallel. It is the batching
// hook for the validate stage: amortized work — batch signature
// verification, shared key lookups — wants one call per contiguous slice
// of a block, not one call per transaction. Chunks are ceil(n/workers)
// wide, so with w workers every chunk is within one item of the others.
func ParallelChunks(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	Parallel(chunks, chunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
