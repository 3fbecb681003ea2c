package hybrid

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/authstate"
	"dichotomy/internal/cluster"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ingress"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/recovery"
	"dichotomy/internal/sharedlog"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/lsm"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// Veritas is the storage-based + CFT shared-log mini-prototype (the
// paper's out-of-the-blockchain database archetype): transactions execute
// concurrently against local state producing read/write sets, a Kafka-like
// shared log orders the *storage effects*, and every verifier node applies
// them with an optimistic read-set check. State integrity rests on trusted
// verifiers signing state digests, so no per-transaction signatures or
// Merkle maintenance sit on the critical path — which is why the framework
// predicts (and Fig 15 reports) the top throughput class.
type Veritas struct {
	cfg     VeritasConfig
	net     *cluster.Network
	log     *sharedlog.Service
	nodes   []*veritasNode
	clients system.Clients
	// door holds each submitted transaction pending: the front door's
	// mempool with VeritasConfig.Ingress, the direct path's table
	// otherwise.
	door     *ingress.Door
	closeOne sync.Once
}

// VeritasConfig sizes the prototype.
type VeritasConfig struct {
	// Verifiers is the number of verifier nodes consuming the log.
	Verifiers int
	// BatchSize and BatchTimeout shape the shared log's batches.
	BatchSize    int
	BatchTimeout time.Duration
	// ValidationWorkers sizes each verifier's read-set validation pool:
	// the batch's effects validate as key-scheduled waves instead of in
	// strict log order. ≤ 0 selects 1 — the prototype's serial apply, so
	// the modelled system stays faithful unless parallelism is asked for.
	ValidationWorkers int
	// PipelineDepth is how many batches a verifier keeps in flight. ≤ 0
	// selects 1 — no cross-batch overlap.
	PipelineDepth int
	// DataDir, when set, puts each verifier's state on a disk-backed LSM
	// engine under DataDir/verifierN/state with checkpoints under
	// DataDir/verifierN/ckpt. Empty keeps verifiers on the in-memory
	// engine, as before.
	DataDir string
	// CheckpointInterval writes a batch-consistent checkpoint of state
	// every this many log batches, on the apply goroutine. 0 disables
	// checkpointing. Requires DataDir.
	CheckpointInterval uint64
	// CheckpointMode selects full checkpoints (whole store, synchronous
	// on the apply goroutine) or delta checkpoints (dirtied keys only,
	// serialized off it). Default full.
	CheckpointMode recovery.Mode
	// CheckpointFullEvery is the delta-mode compaction period (≤ 0
	// selects the recovery package default).
	CheckpointFullEvery int
	// VerifyClients makes each verifier authenticate the client signature
	// carried by every log record before applying its effect. The paper's
	// prototype trusts its verifiers and skips per-transaction signatures
	// on the critical path, so the default (off) stays faithful; turning
	// it on makes Veritas comparable with the ledger systems' auth cost
	// (clients must then be registered via RegisterClient).
	VerifyClients bool
	// BatchVerify, with VerifyClients, checks each batch's client
	// signatures in one cryptoutil.VerifyBatch pass per worker chunk
	// instead of per-tx curve checks. Per-tx verdicts are identical.
	BatchVerify bool
	// AuthState, when set, gives every verifier an off-commit-path
	// authenticated state commitment (internal/authstate): a per-verifier
	// RootMaintainer consumes each batch's write set and publishes
	// signed roots, and a ProofServer answers verified light-client
	// reads. Off by default — the prototype's trusted-verifier model has
	// no Merkle maintenance at all, which is its throughput edge.
	AuthState bool
	// Ingress, when set, puts the ingress front door (internal/ingress)
	// in front of the prototype: Submit feeds a bounded deduplicating
	// mempool, the builder executes admitted batches locally and drives
	// the shared log's batch cutting from arrival pressure, and overload
	// sheds at admission with ingress.ErrOverloaded. Nil keeps the
	// paper-faithful direct path.
	Ingress *ingress.Config
}

func (c VeritasConfig) withDefaults() VeritasConfig {
	if c.Verifiers <= 0 {
		c.Verifiers = 3
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 100
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = 5 * time.Millisecond
	}
	if c.ValidationWorkers <= 0 {
		c.ValidationWorkers = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	return c
}

// veritasNode holds one verifier's replica of state in the shared striped
// state layer. The apply pipeline is its only writer; Execute simulates
// against consistent snapshots. height tracks the last applied log batch
// sequence number (atomic so recovery and tests can watch catch-up).
type veritasNode struct {
	// Replica is the verifier's lifecycle (internal/system). A verifier
	// needs no catch-up: log records are self-contained, so it
	// resubscribes above its checkpoint and its ordinary pipeline replays
	// the tail.
	*system.Replica
	v        *Veritas
	consumer *sharedlog.Consumer
	pipe     *pipeline.Pipeline[sharedlog.Batch, *veritasBatch]
	height   atomic.Uint64
	// mvcc and sets are the Apply stage's scratch, kept from batch to
	// batch; neither holds a batch's sets once the batch is applied.
	mvcc pipeline.Validator
	sets []txn.RWSet
}

// veritasBatch is one decoded log batch moving through a verifier's
// pipeline. seq is the log sequence number — the verifier's height after
// applying it, which keeps heights aligned with log offsets so a
// recovering verifier can resubscribe exactly where its checkpoint ends.
type veritasBatch struct {
	seq uint64
	txn.Block
	authErrs []error           // per-tx client-auth verdicts; nil slice when auth is off
	verdicts []occ.AbortReason // the verifier's Validator's, valid until its next batch's Apply
	applyErr error
}

var _ system.System = (*Veritas)(nil)

// registry holds the contracts both prototypes run, KV and Smallbank;
// Execute only reads it.
var registry = contract.NewRegistry(contract.KV{}, contract.Smallbank{})

// NewVeritas assembles and starts the prototype.
func NewVeritas(cfg VeritasConfig) (*Veritas, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointInterval > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("veritas: CheckpointInterval requires DataDir")
	}
	v := &Veritas{
		cfg: cfg,
		net: cluster.NewNetwork(cluster.ZeroLink{}),
	}
	v.log = sharedlog.New(sharedlog.Config{
		Net: v.net, NodeBase: 500000,
		BatchSize: cfg.BatchSize, BatchTimeout: cfg.BatchTimeout,
	})
	fail := func(err error) (*Veritas, error) {
		v.Close()
		return nil, err
	}
	door, err := ingress.NewDoor(cfg.Ingress, v.ingestBatch, v.execute, "veritas: commit timeout")
	if err != nil {
		return fail(fmt.Errorf("veritas: ingress: %w", err))
	}
	v.door = door
	for i := 0; i < cfg.Verifiers; i++ {
		rc := system.ReplicaConfig{
			Label:   fmt.Sprintf("veritas verifier %d", i),
			DataDir: cfg.DataDir,
			Name:    fmt.Sprintf("verifier%d", i),
			Engine:  openEngine,
			Checkpoint: recovery.Options{
				Interval:  cfg.CheckpointInterval,
				Mode:      cfg.CheckpointMode,
				FullEvery: cfg.CheckpointFullEvery,
			},
		}
		if cfg.AuthState {
			signer, err := cryptoutil.NewSigner(fmt.Sprintf("veritas-verifier-%d", i))
			if err != nil {
				return fail(fmt.Errorf("%s: root maintainer: %w", rc.Label, err))
			}
			rc.Auth = &authstate.Config{Signer: signer}
		}
		rep, err := system.OpenReplica(rc)
		if err != nil {
			return fail(err)
		}
		n := &veritasNode{Replica: rep, v: v}
		n.pipe = pipeline.New(pipeline.Config{
			Workers: cfg.ValidationWorkers,
			Depth:   cfg.PipelineDepth,
		}, pipeline.Stages[sharedlog.Batch, *veritasBatch]{
			Decode:   n.decodeBatch,
			Validate: n.validateBatch,
			Apply:    n.applyBatch,
			Seal:     n.sealBatch,
		})
		n.consumer = v.log.Subscribe(1)
		n.Run(n.applyLoop)
		v.nodes = append(v.nodes, n)
	}
	return v, nil
}

// openEngine is both prototypes' engine choice: the in-memory database by
// default (the ledgerless store), a disk-backed LSM under stateDir when
// durability is asked for.
func openEngine(stateDir string) (storage.Engine, error) {
	if stateDir == "" {
		return memdb.New(), nil
	}
	return lsm.Open(lsm.Options{Dir: stateDir})
}

// Name implements system.System.
func (v *Veritas) Name() string { return "veritas-like" }

// RegisterClient records a client verification key. Only needed when
// VerifyClients is on; unregistered clients' effects are then rejected at
// the validate stage.
func (v *Veritas) RegisterClient(name string, pub cryptoutil.PublicKey) {
	v.clients.Register(name, pub)
}

// Execute implements system.System as the thin Submit+Wait wrapper.
func (v *Veritas) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(v, t)
}

// Submit implements system.System. With an ingress front door every
// transaction goes through the mempool (reads resolve at build time,
// right after their local execution); without one it opens its entry in
// pending and the direct execute path runs on its own goroutine.
func (v *Veritas) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	return v.door.Submit(ctx, t)
}

// executeLocal runs t against the first verifier's committed state and
// classifies the outcome: done=true means r is final (error, business
// abort, or a read-only commit); done=false means t's effect (now in
// t.RWSet) must go through the shared log. Shared by the direct execute
// path and the ingress batch sink.
func (v *Veritas) executeLocal(t *txn.Tx) (r system.Result, done bool) {
	n := v.nodes[0] // any node can execute; effects are ordered globally
	if n.Crashed() {
		return system.Result{Err: errors.New("veritas: executing verifier is down")}, true
	}
	var rw txn.RWSet
	var err error
	t.Trace.Time(metrics.PhaseExecute, func() {
		snap := n.St.Snapshot()
		defer snap.Release()
		rw, err = registry.Execute(snap, t.Invocation)
	})
	if err != nil {
		if errors.Is(err, contract.ErrAbort) {
			return system.Result{Reason: occ.OK, Err: err}, true
		}
		return system.Result{Err: err}, true
	}
	if len(rw.Writes) == 0 {
		return system.Result{Committed: true}, true
	}
	t.RWSet = rw
	return system.Result{}, false
}

// execute is the direct path, run with t's entry open in the door's table:
// concurrent local execution, then the effect (not the transaction) goes
// through the shared log — marshalled whole, as Veritas ships effects
// through Kafka. Self-contained records are what make the retained log
// tail a replay source: a crashed verifier resubscribes above its
// checkpoint and catches up through its ordinary apply pipeline.
func (v *Veritas) execute(t *txn.Tx, await func() system.Result) system.Result {
	if r, done := v.executeLocal(t); done {
		return r
	}
	start := time.Now()
	if err := v.log.AppendEntry(logEntry(t)); err != nil {
		return system.Result{Err: err}
	}
	r := await()
	t.Trace.Observe(metrics.PhaseOrder, time.Since(start))
	return r
}

// ingestBatch is the ingress builder's sink: it executes each admitted
// transaction locally (serially, preserving the direct path's semantics
// on the single executing verifier), resolves the ones whose outcome is
// known immediately, drives the shared log's batch size from arrival
// pressure, and appends the surviving effects with a bounded retry so a
// pushed-back log throttles the builder instead of stalling it.
func (v *Veritas) ingestBatch(txs []*txn.Tx) error {
	survivors := make([]*txn.Tx, 0, len(txs))
	for _, t := range txs {
		r, done := v.executeLocal(t)
		if done {
			v.door.Resolve(t.ID, r)
			continue
		}
		survivors = append(survivors, t)
	}
	if len(survivors) == 0 {
		return nil
	}
	// Adaptive batch shape: cut the next log batch where arrival pressure
	// put this one.
	v.log.SetBatchSize(len(survivors))
	var throttle error
	for _, t := range survivors {
		if err := v.log.AppendEntryBounded(logEntry(t), time.Second); err != nil {
			v.door.Resolve(t.ID, system.Result{
				Err: fmt.Errorf("%w: shared log unavailable: %v", ingress.ErrOverloaded, err),
			})
			throttle = err
		}
	}
	return throttle
}

// logEntry is t's shared-log entry: its wire bytes, encoded once, behind
// the room the log's header takes.
func logEntry(t *txn.Tx) []byte { return t.AppendTo(sharedlog.NewEntry(t.EncodedLen())) }

// IngressStats returns the front door's counters; ok is false when the
// prototype runs without an ingress.
func (v *Veritas) IngressStats() (ingress.Stats, bool) {
	return v.door.Stats()
}

// ConsensusDropped sums the shared log orderers' transport drop counters —
// the consensus-side overload signal, as opposed to admission sheds.
func (v *Veritas) ConsensusDropped() uint64 { return v.log.Dropped() }

// applyLoop drives the verifier's batch pipeline over the shared log
// until shutdown.
func (n *veritasNode) applyLoop(stop <-chan struct{}) {
	n.pipe.Run(n.consumer.Next, stop)
}

// decodeBatch decodes the verifier's own views of a log batch's effect
// records (pipeline Decode stage). Even a batch with no decodable effects
// passes through, so the verifier's height stays aligned with log sequence
// numbers — the invariant recovery's resubscription depends on.
func (n *veritasNode) decodeBatch(batch sharedlog.Batch) (*veritasBatch, bool) {
	vb := &veritasBatch{seq: batch.Seq}
	for _, rec := range batch.Records {
		_ = vb.DecodeOne(rec) // foreign or corrupt record: skip, keep the batch
	}
	return vb, true
}

// validateBatch authenticates the batch's client signatures (pipeline
// Validate stage) when VerifyClients is on; off (the default, faithful to
// the prototype's trusted-verifier model) it does nothing. In batch mode
// each worker chunk goes through one VerifyBatch pass; verdicts are
// identical to the serial per-tx loop.
func (n *veritasNode) validateBatch(vb *veritasBatch) {
	if !n.v.cfg.VerifyClients {
		return
	}
	vb.authErrs = make([]error, len(vb.Txs))
	n.v.clients.VerifyAll(vb.Txs, vb.authErrs, n.pipe.Workers(), n.v.cfg.BatchVerify)
}

// applyBatch validates the batch's effects and commits them (pipeline
// Apply stage, strict log order). The optimistic read-set check runs as
// key-scheduled waves — later effects still observe earlier in-batch
// writes exactly as the serial log-order pass would — then valid writes
// flush through the store's grouped block-commit path before acking.
// Afterwards the verifier sits exactly at batch-boundary vb.seq, which
// is where the periodic checkpoint snapshots it.
func (n *veritasNode) applyBatch(vb *veritasBatch) {
	height := vb.seq
	sets := slices.Grow(n.sets[:0], len(vb.Txs))[:len(vb.Txs)] // zero: cleared after each batch
	for i, t := range vb.Txs {
		if vb.authErrs != nil && vb.authErrs[i] != nil {
			continue // auth-failed effects take no part in validation
		}
		sets[i] = t.RWSet
	}
	vb.verdicts = n.mvcc.ValidateWaves(sets, n.St, height, n.pipe.Workers())
	clear(sets) // hold no view past the batch
	n.sets = sets[:0]
	for i := range vb.verdicts {
		if vb.authErrs != nil && vb.authErrs[i] != nil {
			vb.verdicts[i] = occ.InconsistentRead // authentication failure
		}
	}
	for i, t := range vb.Txs {
		if vb.verdicts[i] == occ.OK {
			n.Write(t.RWSet.Writes, txn.Version{BlockNum: height, TxNum: uint32(i)})
		}
	}
	// With AuthState on, the maintainer hashes the delta on its own worker.
	vb.applyErr = n.Commit(height)
	n.height.Store(height)
	if vb.applyErr == nil {
		n.MaybeCheckpoint(height)
	}
}

// sealBatch acks the batch's clients; only the first verifier resolves
// (pipeline Seal stage). Replayed batches resolve no one — their callers
// were answered (or timed out) long ago, and Resolve on an id with no
// pending entry is a no-op.
func (n *veritasNode) sealBatch(vb *veritasBatch) {
	if n != n.v.nodes[0] {
		return
	}
	for i, t := range vb.Txs {
		r := system.Result{
			Committed: vb.verdicts[i] == occ.OK && vb.applyErr == nil,
			Reason:    vb.verdicts[i],
			Err:       vb.applyErr,
		}
		if r.Err == nil && vb.authErrs != nil && vb.authErrs[i] != nil {
			r.Err = vb.authErrs[i]
		}
		n.v.door.Resolve(t.ID, r)
	}
}

// CrashVerifier kills verifier i (system.Replica.Crash): its apply
// pipeline stops and its in-memory state — values, versions, cursor — is
// lost. What survives is the checkpoint directory on disk and the shared
// log itself, which retains every batch.
func (v *Veritas) CrashVerifier(i int) {
	if n := v.nodes[i]; n.Crash() {
		n.consumer.Close()
	}
}

// RecoverVerifier rebuilds crashed verifier i from its newest on-disk
// checkpoint with height ≤ maxCkptHeight (0 = newest) and resubscribes
// to the shared log right above it. Catch-up is not a special code path:
// the replayed tail flows through the verifier's ordinary decode/apply/
// seal pipeline, which then seamlessly continues with live batches. It
// returns as soon as the pipeline is running; watch Height against the
// log's batch count for catch-up.
func (v *Veritas) RecoverVerifier(i int, maxCkptHeight uint64) (recovery.Stats, error) {
	n := v.nodes[i]
	stats, err := n.Rebuild(maxCkptHeight, nil)
	if err != nil {
		return stats, err
	}
	stats.TipHeight = v.log.Batches()
	n.height.Store(stats.CheckpointHeight)
	n.consumer = v.log.Subscribe(stats.CheckpointHeight + 1)
	n.Restart(n.applyLoop)
	return stats, nil
}

// Height returns the last log batch verifier i has applied.
func (v *Veritas) Height(i int) uint64 { return v.nodes[i].height.Load() }

// LogBatches returns how many batches the shared log has cut — the tip a
// recovering verifier must catch up to.
func (v *Veritas) LogBatches() uint64 { return v.log.Batches() }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// network's transport — the chaos layer's drop/delay/reorder seam.
func (v *Veritas) SetFaults(hook cluster.FaultHook) { v.net.SetFaults(hook) }

// Checkpointer exposes verifier i's checkpointer (nil when disabled).
func (v *Veritas) Checkpointer(i int) *recovery.Checkpointer { return v.nodes[i].Ckpt }

// ReadState returns the committed value of key on the first verifier (the
// uniform inspection surface the shared state layer provides).
func (v *Veritas) ReadState(key string) ([]byte, bool) {
	val, _, err := v.nodes[0].St.Get(key)
	return val, err == nil
}

// State exposes verifier i's striped state store (tests and inspection).
func (v *Veritas) State(i int) *state.Store { return v.nodes[i].St }

// Auth exposes verifier i's root maintainer (nil unless AuthState).
func (v *Veritas) Auth(i int) *authstate.RootMaintainer { return v.nodes[i].Auth }

// Proofs exposes verifier i's proof server (nil unless AuthState) — the
// light-client read endpoint.
func (v *Veritas) Proofs(i int) *authstate.ProofServer { return v.nodes[i].Proofs }

// Close implements system.System.
func (v *Veritas) Close() {
	v.closeOne.Do(func() {
		// Stop admission first: the builder drains or resolves what it
		// holds while the log and verifiers below are still alive.
		v.door.Close()
		v.log.Stop()
		for _, n := range v.nodes {
			n.Close()
		}
		v.net.Close()
	})
}

// Fprintable summary for examples.
func (v *Veritas) String() string {
	return fmt.Sprintf("veritas-like(%d verifiers)", v.cfg.Verifiers)
}
