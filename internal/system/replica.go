package system

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/authstate"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ledger"
	"dichotomy/internal/recovery"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/lsm"
	"dichotomy/internal/txn"
)

// ReplicaConfig is what a system says about one of its replicas; the
// lifecycle that follows from it is Replica's.
type ReplicaConfig struct {
	// Label names the replica in set-up and recovery errors ("fabric peer0").
	Label string
	// DataDir, when set, makes the replica durable under DataDir/Name: the
	// engine in its state directory, checkpoints in ckpt. Empty keeps it
	// memory-only.
	DataDir, Name string
	// Engine opens the state engine over stateDir ("" = in memory). It runs
	// at set-up and again for every recovery, which rebuilds onto a fresh
	// engine.
	Engine func(stateDir string) (storage.Engine, error)
	// Auth, when non-nil, gives the replica an off-commit-path root
	// maintainer and a proof server caching ProofCache entries.
	Auth       *authstate.Config
	ProofCache int
	// Checkpoint configures the checkpointer; Interval 0 turns it off, and
	// Dir is the runtime's to fill in.
	Checkpoint recovery.Options
}

// LSMEngine is the ReplicaConfig.Engine of the two blockchains: an LSM
// tree, disk-backed under stateDir or in memory without one, wrapped by
// hook when set (fault injection).
func LSMEngine(hook func(storage.Engine) storage.Engine) func(stateDir string) (storage.Engine, error) {
	return func(stateDir string) (storage.Engine, error) {
		eng, err := lsm.Open(lsm.Options{Dir: stateDir})
		if err != nil || hook == nil {
			return eng, err
		}
		return hook(eng), nil
	}
}

// Replica is the lifecycle every ledger-side replica shares — Fabric's
// peer, Quorum's node, Veritas's verifier and BigchainDB's validator embed
// it and add what the paper says distinguishes them (topology, engine
// choice, pipeline stages, replay source, rejoin step). It owns the
// replica's engines and goroutines and the sequences over them:
//
//   - OpenReplica: engine → store → root maintainer → checkpointer, closing
//     in reverse on any error.
//   - Run: the replica's loops, each handed the stop channel.
//   - Crash: flag → stop the loops → close checkpointer, maintainer,
//     store. Every ordered stream carries its payloads whole, so a down
//     replica owes no one its copies, and nothing reads its stream: a
//     consensus member — Quorum's and BigchainDB's keep running behind
//     their crashed execution layers — keeps its log as it would anyway,
//     and a shared-log consumer (Fabric's peer, Veritas's verifier) closes
//     its subscription.
//   - Rebuild → CatchUp → Restart: restore the newest checkpoint onto a
//     fresh engine and reseed the maintainer from it; replay a healthy
//     source through the system's own stage function to a tip T1 ≥ D, the
//     position consumed when the replica crashed; restart the loops. The
//     stream resumes above T1 — by resubscription, or, for a consensus
//     log, by a decode stage that reads on from D+1 and skips, through
//     Consume, positions up to T1 — and positions align because block N
//     is always stream element N. A failed Rebuild or CatchUp leaves the
//     replica as Crash does.
//   - Close: stop the loops, wait, close the engines.
//
// Between those, every block lands the same way, whatever the system's
// order of execution and validation: the system's apply stage stages the
// block's valid write sets with Write and lands them with Commit — one
// grouped store commit, and the block's delta to the root maintainer —
// and its seal stage appends the ledger block with Seal. The staging
// block is the replica's own, kept for its lifetime and remade on the
// restored store by Rebuild, so a block costs no staging allocations;
// Write and Commit run on the replica's one committer (its apply stage,
// or CatchUp's stage while the loops are stopped).
//
// The engine fields are exported for the embedding system's stage
// functions and inspection accessors; only the runtime assigns them, and
// only while the replica's loops are stopped.
type Replica struct {
	cfg ReplicaConfig

	St *state.Store
	// Ledger is nil while crashed; the ledgerless prototypes leave it empty.
	Ledger *ledger.Ledger
	// Auth and Proofs are nil without ReplicaConfig.Auth and while crashed.
	Auth   *authstate.RootMaintainer
	Proofs *authstate.ProofServer
	// Ckpt is nil when checkpointing is off.
	Ckpt *recovery.Checkpointer
	// blk stages the next block's writes over St (Write, Commit).
	blk *state.Block
	// Delivered is the newest position of the ordered stream the replica
	// has consumed, stored by the system's decode stage through Consume.
	Delivered atomic.Uint64

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	crashed  atomic.Bool
	// tip is T1, the height the last successful CatchUp replayed to.
	// CatchUp writes it while the loops are stopped, and the decode stage
	// Restart starts reads it in Consume.
	tip uint64
	// source is the replica Rebuild was given to catch up from, nil when
	// the log itself is the source; CatchUp fails once it crashes.
	source *Replica
	// catchUpWait bounds how long CatchUp waits for a live replay source to
	// apply the tail the replica had consumed before it crashed: 30 s,
	// which in-package tests shorten.
	catchUpWait time.Duration
}

// OpenReplica opens a replica's engines. On error everything already
// opened is closed again, so a failed set-up leaks neither an engine nor
// the maintainer's goroutine.
func OpenReplica(cfg ReplicaConfig) (*Replica, error) {
	r := &Replica{cfg: cfg, Ledger: ledger.New(), stopCh: make(chan struct{}), catchUpWait: 30 * time.Second}
	eng, err := r.openEngine()
	if err != nil {
		return nil, fmt.Errorf("%s: open state engine: %w", cfg.Label, err)
	}
	r.St = state.New(eng, 0)
	r.blk = r.St.NewBlock()
	if err := r.startAuth(); err != nil {
		r.closeEngines()
		return nil, err
	}
	if cfg.Checkpoint.Interval > 0 {
		if r.Ckpt, err = recovery.NewCheckpointer(r.St, r.ckptOptions()); err != nil {
			r.closeEngines()
			return nil, fmt.Errorf("%s: checkpointer: %w", cfg.Label, err)
		}
	}
	return r, nil
}

// ckptOptions is the system's checkpoint configuration over the replica's
// own checkpoint directory.
func (r *Replica) ckptOptions() recovery.Options {
	opts := r.cfg.Checkpoint
	opts.Dir = r.dir("ckpt")
	return opts
}

// dir returns the replica's sub-directory, or "" for a memory-only one.
func (r *Replica) dir(sub string) string {
	if r.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(r.cfg.DataDir, r.cfg.Name, sub)
}

func (r *Replica) openEngine() (storage.Engine, error) { return r.cfg.Engine(r.dir("state")) }

// startAuth starts a fresh root maintainer and proof server when the
// replica is configured with them.
func (r *Replica) startAuth() error {
	if r.cfg.Auth == nil {
		return nil
	}
	auth, err := authstate.New(*r.cfg.Auth)
	if err != nil {
		return fmt.Errorf("%s: root maintainer: %w", r.cfg.Label, err)
	}
	r.Auth, r.Proofs = auth, authstate.NewProofServer(auth, r.cfg.ProofCache)
	return nil
}

// closeEngines closes checkpointer, maintainer and store, in that order:
// queued checkpoint jobs and root deltas die first, as a real crash would
// lose them. Every close is idempotent.
func (r *Replica) closeEngines() {
	if r.Ckpt != nil {
		r.Ckpt.Close()
	}
	if r.Auth != nil {
		r.Auth.Close()
	}
	if r.St != nil {
		r.St.Close()
	}
}

// lose closes the engines and forgets what died with them: the state of a
// crashed replica, and of one whose recovery failed.
func (r *Replica) lose() {
	r.closeEngines()
	r.Ledger, r.Auth, r.Proofs = nil, nil, nil
}

// Run starts the replica's loops; each must return once stop closes.
func (r *Replica) Run(loops ...func(stop <-chan struct{})) {
	stop := r.stopCh
	for _, loop := range loops {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			loop(stop)
		}()
	}
}

// Stop stops the loops and waits for them to return.
func (r *Replica) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

// Crashed reports whether the replica is down; routing skips it.
func (r *Replica) Crashed() bool { return r.crashed.Load() }

// Crash kills the replica: its loops stop (blocks already past validation
// still seal, as a crash between fsyncs would leave them) and its engines
// close, losing everything in memory. What survives is what recovery may
// use: the checkpoint directory and the other replicas. Nothing reads the
// replica's stream while it is down; Delivered stays where the decode
// stage left it, the pivot D of the next recovery. Crash reports false on
// an already crashed replica.
func (r *Replica) Crash() bool {
	if r.crashed.Swap(true) {
		return false
	}
	r.Stop()
	r.lose()
	return true
}

// Consume records pos as the newest stream position the replica has
// consumed and reports whether it lies above T1, the tip its last recovery
// replayed to; the decode stage drops an element at or below it, whose
// block the replay already appended.
func (r *Replica) Consume(pos uint64) bool {
	r.Delivered.Store(pos)
	return pos > r.tip
}

// Rebuild begins a recovery: it restores the newest checkpoint with
// height ≤ maxCkptHeight (0 = newest) onto a fresh engine with a rebound
// checkpointer, starts an empty ledger, and rebuilds the state commitment
// through the maintainer's delta path — the restored store dumps as one
// synthetic delta at the checkpoint height, and the replay then feeds
// per-block deltas as live commits do (the trie root is
// content-determined). A failed Rebuild leaves the replica crashed with
// its engines closed; it may be retried. It refuses a replica that is not
// crashed, and a crashed src — the replica to catch up from, nil when the
// log itself is the source — untouched.
func (r *Replica) Rebuild(maxCkptHeight uint64, src *Replica) (stats recovery.Stats, err error) {
	if !r.Crashed() {
		return stats, fmt.Errorf("%s is not crashed", r.cfg.Label)
	}
	if src != nil && src.Crashed() {
		return stats, fmt.Errorf("%s: source %s is crashed", r.cfg.Label, src.cfg.Label)
	}
	r.source = src
	r.lose() // whatever an earlier attempt's system-side step left open
	defer func() {
		if err != nil {
			r.lose()
		}
	}()
	if dir := r.dir("state"); dir != "" {
		// The engine never reads its files back (lsm's package doc): the
		// restore comes from the checkpoint chain alone, and the wipe only
		// drops the dead incarnation's files.
		if err := os.RemoveAll(dir); err != nil {
			return stats, fmt.Errorf("%s: wipe state dir: %w", r.cfg.Label, err)
		}
	}
	eng, err := r.openEngine()
	if err != nil {
		return stats, fmt.Errorf("%s: reopen state engine: %w", r.cfg.Label, err)
	}
	st := state.New(eng, 0)
	r.St, r.blk, r.Ledger = st, st.NewBlock(), ledger.New()
	if r.cfg.Checkpoint.Interval > 0 {
		if r.Ckpt, stats, err = recovery.RestoreCheckpointer(st, r.ckptOptions(), maxCkptHeight); err != nil {
			return stats, err
		}
	}
	if err := r.startAuth(); err != nil {
		return stats, err
	}
	if r.Auth != nil && stats.CheckpointHeight > 0 {
		var seed []state.VersionedWrite
		st.Dump(func(key string, value []byte, ver txn.Version) bool {
			seed = append(seed, state.VersionedWrite{
				Write:   txn.Write{Key: key, Value: bytes.Clone(value)},
				Version: ver,
			})
			return true
		})
		if err := r.Auth.Submit(stats.CheckpointHeight, seed); err != nil {
			return stats, fmt.Errorf("%s: seed root maintainer: %w", r.cfg.Label, err)
		}
	}
	return stats, nil
}

// CatchUp replays src from the replica's height() — zero after Rebuild —
// through stage until it has reached D = Delivered, the position the
// replica had consumed when it crashed. Blocks up to
// stats.CheckpointHeight are already in the restored state: for those
// stage only copies what the replica keeps of its history; above, it runs
// the system's live stages. The source keeps committing meanwhile, so
// each pass replays what it has by now, and while it has not itself
// applied D yet — or the checkpoint yet — CatchUp waits for it. src must
// be a value read once: its owner may crash mid-replay, which then shows
// as a source that stopped growing, and fails the recovery at once when
// that owner is the replica Rebuild was given. A stage error, a gap in the
// source or a source still below D at the deadline fails the recovery too,
// leaving the replica as Rebuild's failures do. On success
// stats.TipHeight is the hand-off tip T1 ≥ D, which Consume skips up to.
func (r *Replica) CatchUp(src recovery.BlockSource, height func() uint64, stage func(n uint64, payloads [][]byte) error, stats *recovery.Stats) error {
	D := r.Delivered.Load()
	start := time.Now()
	err := r.replayTo(D, start.Add(r.catchUpWait), src, height, stage)
	stats.ReplayDuration = time.Since(start)
	if h := height(); h > stats.CheckpointHeight {
		stats.ReplayedBlocks = h - stats.CheckpointHeight
	}
	if err != nil {
		r.lose()
		return err
	}
	stats.TipHeight = height()
	r.tip = stats.TipHeight
	return nil
}

func (r *Replica) replayTo(D uint64, deadline time.Time, src recovery.BlockSource, height func() uint64, stage func(n uint64, payloads [][]byte) error) error {
	for {
		n, err := recovery.Replay(src, height(), stage)
		if err != nil {
			return err
		}
		if n > 0 {
			continue
		}
		if height() >= D {
			return nil
		}
		if r.source != nil && r.source.Crashed() {
			return fmt.Errorf("%s: replay source %s crashed below position %d", r.cfg.Label, r.source.cfg.Label, D)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: replay source stuck below drained position %d", r.cfg.Label, D)
		}
		//lint:allow sleepyloop waiting for the live replay source to apply the tail consumed before the crash
		time.Sleep(time.Millisecond)
	}
}

// CatchUpLedger is CatchUp for a replica that keeps a ledger, from a
// healthy replica's: blocks above the restored checkpoint run through
// stage (the live validate and apply stages), and every block, below it
// or above, is appended as the source sealed it — Append verifies it.
func (r *Replica) CatchUpLedger(src *ledger.Ledger, stage func(txs []*txn.Tx) error, stats *recovery.Stats) error {
	led, ckpt := r.Ledger, stats.CheckpointHeight
	return r.CatchUp(recovery.LedgerSource{L: src}, led.Height, func(n uint64, payloads [][]byte) error {
		if n > ckpt {
			txs, err := recovery.DecodeTxs(payloads)
			if err != nil {
				return err
			}
			if err := stage(txs); err != nil {
				return err
			}
		}
		blk, _ := src.Block(n)
		return led.Append(blk)
	}, stats)
}

// Restart ends a recovery: the replica is live again and runs loops on a
// fresh stop channel.
func (r *Replica) Restart(loops ...func(stop <-chan struct{})) {
	r.crashed.Store(false)
	r.stopCh, r.stopOnce = make(chan struct{}), sync.Once{}
	r.Run(loops...)
}

// Close stops the loops and closes the engines.
func (r *Replica) Close() {
	r.Stop()
	r.closeEngines()
}

// Write stages one transaction's write set at ver into the replica's
// block; a later write of a key wins at Commit.
func (r *Replica) Write(ws []txn.Write, ver txn.Version) { r.blk.StageAll(ws, ver) }

// Commit lands the staged block at height: the writes go to the store in
// one grouped commit and, with a root maintainer, to the maintainer as the
// block's delta — a copy of its own, which no later block writes into, so
// the maintainer's worker hashes it while the replica stages the next one.
// The block is empty afterwards either way; a failed apply drops its
// writes. A maintainer closed by a shutdown (authstate.ErrClosed) is not
// an error: the delta dies with the replica, as a crash would lose it.
func (r *Replica) Commit(height uint64) error {
	var delta []state.VersionedWrite
	if r.Auth != nil {
		delta = slices.Clone(r.blk.Writes())
	}
	if err := r.blk.Commit(); err != nil {
		return fmt.Errorf("%s: block commit: %w", r.cfg.Label, err)
	}
	if r.Auth != nil {
		if err := r.Auth.Submit(height, delta); err != nil && err != authstate.ErrClosed {
			return fmt.Errorf("%s: root maintainer: %w", r.cfg.Label, err)
		}
	}
	return nil
}

// Seal appends the ledger block of the transactions raw. With a root
// maintainer its header carries the latest published signed root — which
// may trail the block by the maintainer's queue and publish interval
// (bounded staleness); without one, a zero root at height 0.
func (r *Replica) Seal(raw [][]byte) {
	var root cryptoutil.Hash
	var height uint64
	if r.Auth != nil {
		if up, ok := r.Auth.Published(); ok {
			root, height = up.Root.Root, up.Root.Height
		}
	}
	r.Ledger.Seal(raw, root, height)
}

// MaybeCheckpoint runs the checkpoint policy at a block boundary. Systems
// call it on the committer after the block's clients are answered: the
// store sits exactly at height, so a snapshot can never tear a block.
func (r *Replica) MaybeCheckpoint(height uint64) {
	if r.Ckpt != nil {
		//lint:allow errshadow failure retained in LastErr for the recovery stats
		_, _ = r.Ckpt.MaybeCheckpoint(height)
	}
}
