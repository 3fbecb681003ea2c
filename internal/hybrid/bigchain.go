package hybrid

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/pbft"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/recovery"
	"dichotomy/internal/state"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// Bigchain is the transaction-based + BFT-consensus mini-prototype (the
// paper's out-of-the-database blockchain archetype, BigchainDB): whole
// transactions are totally ordered by a Tendermint-class BFT protocol
// (our PBFT), then each node executes the same sequence against its own
// local database. Execution concurrency is capped by the ledger order and
// the BFT quorums are expensive, which is why the framework predicts the
// bottom throughput class.
type Bigchain struct {
	cfg   BigchainConfig
	net   *cluster.Network
	nodes []*bigchainNode
	// pending holds each submitted transaction until a validator applies
	// it.
	pending *system.Pending
	// seq numbers submissions: an entry is seq u64 | the transaction's wire
	// bytes, so each submission is a payload of its own. PBFT drops a
	// payload whose digest it has already sequenced, and a transaction
	// carries no nonce, so a repeat of one submitted before would otherwise
	// never commit.
	seq      atomic.Uint64
	closeOne sync.Once
}

// BigchainConfig sizes the prototype.
type BigchainConfig struct {
	// Nodes is the validator count (3f+1).
	Nodes int
	// DataDir, when set, puts each validator's state on a disk-backed LSM
	// engine under DataDir/validatorN/state with checkpoints under
	// DataDir/validatorN/ckpt. Empty keeps validators on the in-memory
	// engine, as before.
	DataDir string
	// CheckpointInterval writes a checkpoint of state every this many
	// applied transactions (each consensus entry is one transaction — the
	// archetype's concurrency ceiling). 0 disables. Requires DataDir.
	CheckpointInterval uint64
	// CheckpointMode selects full checkpoints (whole store, synchronous
	// on the apply goroutine) or delta checkpoints (dirtied keys only,
	// serialized off it). Default full.
	CheckpointMode recovery.Mode
	// CheckpointFullEvery is the delta-mode compaction period (≤ 0
	// selects the recovery package default).
	CheckpointFullEvery int
}

func (c BigchainConfig) withDefaults() BigchainConfig {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	return c
}

// bigchainNode executes the ordered ledger against its replica of state
// in the shared striped state layer; the apply pipeline is the only
// accessor, so no node-level lock is needed. Each consensus entry carries
// one whole transaction — the BigchainDB archetype's concurrency ceiling
// — so the shared pipeline runs with single-transaction blocks: it keeps
// the decode/commit skeleton uniform, and execution concurrency stays
// capped by the ledger order, as the paper's model demands.
type bigchainNode struct {
	// Replica is the validator's lifecycle (internal/system). Delivered
	// counts the transactions the node has consumed from its commit
	// stream: PBFT totally orders transactions and every entry carries
	// exactly one, so the count IS the node's position in the global
	// applied sequence.
	*system.Replica
	b    *Bigchain
	cons consensus.Node
	pipe *pipeline.Pipeline[consensus.Entry, *txn.Block]
	// view is the block the Decode stage decodes each entry into, reused:
	// at depth 1 an entry is applied before the next is decoded.
	view   txn.Block
	height atomic.Uint64
	// applied retains every applied transaction's wire bytes — the
	// entry's own — in apply order: BigchainDB stores its blocks in the
	// local database, and this retained history is what a crashed peer
	// replays from.
	appliedMu sync.Mutex
	applied   [][]byte
}

var _ system.System = (*Bigchain)(nil)

// NewBigchain assembles and starts the prototype.
func NewBigchain(cfg BigchainConfig) (*Bigchain, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointInterval > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("bigchain: CheckpointInterval requires DataDir")
	}
	b := &Bigchain{
		cfg: cfg,
		net: cluster.NewNetwork(cluster.ZeroLink{}),
	}
	b.pending = system.NewPending("bigchain: commit timeout", b.execute)
	peers := make([]cluster.NodeID, cfg.Nodes)
	for i := range peers {
		peers[i] = cluster.NodeID(600000 + i)
	}
	for i, id := range peers {
		rep, err := system.OpenReplica(system.ReplicaConfig{
			Label:   fmt.Sprintf("bigchain validator %d", i),
			DataDir: cfg.DataDir,
			Name:    fmt.Sprintf("validator%d", i),
			Engine:  openEngine,
			Checkpoint: recovery.Options{
				Interval:  cfg.CheckpointInterval,
				Mode:      cfg.CheckpointMode,
				FullEvery: cfg.CheckpointFullEvery,
			},
		})
		if err != nil {
			b.Close()
			return nil, err
		}
		n := &bigchainNode{Replica: rep, b: b}
		n.pipe = pipeline.New(pipeline.Config{Workers: 1, Depth: 1},
			pipeline.Stages[consensus.Entry, *txn.Block]{
				Decode: n.decodeEntry,
				Apply:  func(v *txn.Block) { n.apply(v.Txs[0], v.Raw[0]) },
			})
		n.cons = pbft.New(pbft.Config{ID: id, Peers: peers, Endpoint: b.net.Register(id, 8192)})
		b.nodes = append(b.nodes, n)
	}
	for _, n := range b.nodes {
		n.Run(n.applyLoop)
	}
	return b, nil
}

// Name implements system.System.
func (b *Bigchain) Name() string { return "bigchaindb-like" }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// network's transport — the chaos layer's drop/delay/reorder seam.
func (b *Bigchain) SetFaults(hook cluster.FaultHook) { b.net.SetFaults(hook) }

// Execute implements system.System as the thin Submit+Wait wrapper.
func (b *Bigchain) Execute(t *txn.Tx) system.Result { return system.ExecuteViaSubmit(b, t) }

// Submit implements system.System: t opens its entry in pending, and the
// execute path runs on its own goroutine.
func (b *Bigchain) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	return b.pending.Submit(ctx, t)
}

// execute is the one path, run with t's entry open in pending: the whole
// transaction is ordered first, then executed identically on every node's
// local database.
func (b *Bigchain) execute(t *txn.Tx, await func() system.Result) system.Result {
	if !slices.ContainsFunc(b.nodes, func(n *bigchainNode) bool { return !n.Crashed() }) {
		return system.Result{Err: errors.New("bigchain: no live validators")}
	}
	entry := t.AppendTo(binary.BigEndian.AppendUint64(make([]byte, 0, 8+t.EncodedLen()), b.seq.Add(1)))
	start := time.Now()
	// Any live validator accepts the proposal (PBFT forwards internally).
	// A proposal can bounce while a view change is in flight, so re-offer
	// it around the ring until one validator takes it; duplicate offers
	// are digest-deduped inside PBFT, so over-proposing is harmless.
	if err := b.propose(entry); err != nil {
		return system.Result{Err: err}
	}
	r := await()
	t.Trace.Observe(metrics.PhaseConsensus, time.Since(start))
	return r
}

// propose offers the payload to each live validator in turn until one
// accepts it, backing off between full passes; PBFT rejects proposals
// mid-view-change, which heals within a few ticks.
func (b *Bigchain) propose(data []byte) error {
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for {
		for _, n := range b.nodes {
			if n.Crashed() {
				continue
			}
			if lastErr = n.cons.Propose(data); lastErr == nil {
				return nil
			}
		}
		if lastErr == nil {
			lastErr = errors.New("bigchain: no live validators")
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bigchain: proposal not accepted: %w", lastErr)
		}
		//lint:allow sleepyloop re-offer cadence while consensus heals from a view change
		time.Sleep(100 * time.Millisecond)
	}
}

// applyLoop drives the node's pipeline over the consensus commit stream
// until shutdown.
func (n *bigchainNode) applyLoop(stop <-chan struct{}) {
	n.pipe.Run(n.cons.Committed(), stop)
}

// decodeEntry decodes the node's own view of a committed entry's
// transaction (pipeline Decode stage); view-change no-ops are skipped.
// Every transaction advances the node's delivered position, and
// transactions at or below the recovery tip T1 (covered by a
// just-finished recovery replay, Replica.Consume) are not re-applied.
func (n *bigchainNode) decodeEntry(e consensus.Entry) (*txn.Block, bool) {
	if len(e.Data) <= 8 {
		return nil, false // view-change no-op
	}
	n.view.Reset()
	if !n.Consume(n.Delivered.Load()+1) || n.view.DecodeOne(e.Data[8:]) != nil {
		return nil, false
	}
	return &n.view, true
}

// apply executes one ordered transaction, encoded as raw, against the
// local database (pipeline Apply stage). raw is retained in the node's
// applied history first, so the history a peer recovers from is complete
// even if execution aborts the transaction — replay must reach the same
// verdicts itself.
func (n *bigchainNode) apply(t *txn.Tx, raw []byte) {
	height := n.height.Add(1)
	n.appliedMu.Lock()
	n.applied = append(n.applied, raw)
	n.appliedMu.Unlock()
	rw, err := registry.Execute(n.St, t.Invocation)
	if err == nil {
		n.Write(rw.Writes, txn.Version{BlockNum: height})
		err = n.Commit(height)
	}
	r := system.Result{Committed: err == nil}
	if err != nil {
		r.Reason = occ.OK
		r.Err = err
	}
	n.b.pending.Resolve(t.ID, r)
	if err == nil {
		n.MaybeCheckpoint(height)
	}
}

// appliedSource adapts a validator's retained history as a replay
// source: each "block" is one applied transaction, matching the
// archetype's one-transaction-per-consensus-entry ceiling.
type appliedSource struct{ n *bigchainNode }

func (s appliedSource) Height() uint64 {
	s.n.appliedMu.Lock()
	defer s.n.appliedMu.Unlock()
	return uint64(len(s.n.applied))
}

func (s appliedSource) Payloads(h uint64) ([][]byte, bool) {
	s.n.appliedMu.Lock()
	defer s.n.appliedMu.Unlock()
	if h < 1 || h > uint64(len(s.n.applied)) {
		return nil, false
	}
	return [][]byte{s.n.applied[h-1]}, true
}

// CrashValidator kills validator i's execution layer (system.Replica.Crash):
// the apply pipeline stops and its in-memory state and applied history
// are lost. Its PBFT replica keeps running, and what it commits waits
// unread in its queue until RecoverValidator restarts the decode stage.
func (b *Bigchain) CrashValidator(i int) {
	if n := b.nodes[i]; n.Crash() {
		n.setApplied(nil)
	}
}

func (n *bigchainNode) setApplied(history [][]byte) {
	n.appliedMu.Lock()
	n.applied = history
	n.appliedMu.Unlock()
}

// RecoverValidator rebuilds crashed validator i from its newest on-disk
// checkpoint with height ≤ maxCkptHeight (0 = newest) plus a replay of
// healthy validator from's applied history through the node's own apply
// stage, and then rejoins live consumption (the sequence is
// system.Replica's). The restarted decode stage reads the transactions
// queued since the crash and, as Quorum's does, drops those the replay
// already covered (Replica.Consume).
// The network may keep committing throughout — no quiesce is required.
func (b *Bigchain) RecoverValidator(i, from int, maxCkptHeight uint64) (recovery.Stats, error) {
	n, src := b.nodes[i], b.nodes[from]
	// Replay re-runs the live apply stage, which checkpoints as it goes
	// through the rebound checkpointer.
	stats, err := n.Rebuild(maxCkptHeight, src.Replica)
	if err != nil {
		return stats, err
	}
	n.height.Store(stats.CheckpointHeight)
	n.setApplied(nil)
	err = n.CatchUp(appliedSource{src}, appliedSource{n}.Height, func(h uint64, payloads [][]byte) error {
		if h <= stats.CheckpointHeight {
			// Restored with the checkpoint: only the history is copied.
			n.setApplied(append(n.applied, payloads[0]))
			return nil
		}
		txs, err := recovery.DecodeTxs(payloads)
		if err != nil {
			return err
		}
		n.apply(txs[0], payloads[0]) // the live apply stage: verdicts recomputed, history re-extended
		return nil
	}, &stats)
	if err != nil {
		return stats, err
	}
	// Delivered resumes from D, so the queued transactions the replay
	// covered land at positions D+1..T1 and match.
	n.Restart(n.applyLoop)
	return stats, nil
}

// Checkpointer exposes validator i's checkpointer (nil when disabled).
func (b *Bigchain) Checkpointer(i int) *recovery.Checkpointer { return b.nodes[i].Ckpt }

// Height returns validator i's applied-transaction height.
func (b *Bigchain) Height(i int) uint64 { return b.nodes[i].height.Load() }

// ReadState returns the committed value of key on the first validator
// (the uniform inspection surface the shared state layer provides).
func (b *Bigchain) ReadState(key string) ([]byte, bool) {
	v, _, err := b.nodes[0].St.Get(key)
	return v, err == nil
}

// State exposes validator i's striped state store (tests and inspection).
func (b *Bigchain) State(i int) *state.Store { return b.nodes[i].St }

// Close implements system.System.
func (b *Bigchain) Close() {
	b.closeOne.Do(func() {
		for _, n := range b.nodes {
			n.cons.Stop()
			n.Close()
		}
		b.net.Close()
	})
}
