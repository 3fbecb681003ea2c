// Package quorum models Quorum v2.2, the paper's order-execute
// permissioned blockchain: a geth fork that replaces PoW with Raft or
// IBFT but keeps the EVM execution model and MPT-over-LSM state.
//
// Transaction lifecycle (paper Fig 3a):
//
//  1. Clients submit signed contract invocations to any node, which pools
//     them.
//  2. The consensus leader *pre-executes* pending transactions serially at
//     the ledger tip — block construction is sequential, which is why
//     Quorum cannot exploit concurrency — and batches them into a block.
//  3. The block goes through consensus (Raft or IBFT).
//  4. Every node re-executes the block's transactions ("double
//     execution") through the shared block pipeline: client signatures
//     verify across a worker pool, write-disjoint transactions re-execute
//     speculatively in parallel (with a deterministic serial fix-up for
//     conflicting ones, so every replica still reaches the identical
//     state), writes land in the LSM-backed state as one batch, the
//     block's delta goes to the node's root maintainer, which reconstructs
//     the MPT commitment on its own worker (the per-commit hashing the
//     paper blames for the record-size collapse in Fig 11), and the node
//     appends the block under the latest published root.
//
// A consensus entry is a block: the exactly-once header (consensus.Header)
// and then its transactions' wire bytes back to back, encoded once by the
// proposer. Every node decodes its own views of the entry in its Decode
// stage and seals the encoded bytes themselves into its ledger.
//
// A node's lifecycle — open, crash, rebuild from a checkpoint, catch up
// from a healthy node's ledger, rejoin, close — is system.Replica's,
// shared with Fabric and the hybrid prototypes, and so is step 4's landing
// of a block: Replica.Write stages each re-executed write set,
// Replica.Commit applies them and hands the root maintainer the block's
// delta, and Replica.Seal appends the ledger block. While a node is down
// nothing reads its consensus member's log: the entries carry everything,
// so the restarted decode stage reads on from the one after the last it
// consumed, admits each through the node's Window and skips those the
// recovery replay covered (Replica.Consume). This package supplies what
// distinguishes Quorum: consensus inside every node, the LSM engine under
// an always-on root maintainer, the pipeline stages, and which committed
// entries are blocks (admit).
package quorum

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/authstate"
	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/ibft"
	"dichotomy/internal/consensus/raft"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ingress"
	"dichotomy/internal/ledger"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/recovery"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// ConsensusKind selects the replication protocol.
type ConsensusKind int

const (
	// Raft is Quorum's CFT mode.
	Raft ConsensusKind = iota
	// IBFT is Quorum's BFT mode.
	IBFT
)

// Config assembles a Quorum network.
type Config struct {
	// Nodes is the validator count.
	Nodes int
	// Consensus picks Raft (CFT) or IBFT (BFT).
	Consensus ConsensusKind
	// BlockSize caps transactions per block. Default 100.
	BlockSize int
	// BlockInterval cuts a non-full block after this delay. Default 5ms.
	BlockInterval time.Duration
	// ExecutionWorkers sizes each node's block re-execution worker pool:
	// write-disjoint transactions replay speculatively in parallel, with a
	// deterministic serial fix-up for conflicting ones. ≤ 0 selects 1 —
	// the real system's serial double execution, so the modelled system
	// stays faithful unless parallelism is asked for.
	ExecutionWorkers int
	// PipelineDepth is how many blocks a node keeps in flight: client
	// authentication of block N+1 overlaps commit of block N at depth
	// ≥ 2. ≤ 0 selects 1 — no cross-block overlap, as in the real system.
	PipelineDepth int
	// DataDir, when set, puts each node's LSM state on disk under
	// DataDir/nodeN/state and its checkpoints under DataDir/nodeN/ckpt.
	// Empty keeps nodes memory-only, as before.
	DataDir string
	// CheckpointInterval writes a block-consistent checkpoint of state
	// (values and versions) every this many blocks, on the committer after
	// sealing. 0 disables checkpointing. Requires DataDir.
	CheckpointInterval uint64
	// CheckpointMode selects full checkpoints (whole store, synchronous
	// on the committer) or delta checkpoints (dirtied keys only,
	// serialized off the committer). Default full.
	CheckpointMode recovery.Mode
	// CheckpointFullEvery is the delta-mode compaction period (≤ 0
	// selects the recovery package default).
	CheckpointFullEvery int
	// BatchVerify switches the validate stage's client authentication
	// from one VerifyDigest per transaction to one cryptoutil.VerifyBatch
	// pass per worker chunk (amortized checks, per-batch cost accounting,
	// bisection isolating exactly the bad transaction). Per-tx verdicts
	// are identical to the serial path.
	BatchVerify bool
	// RootPublishEvery signs and publishes the authenticated state root
	// every N blocks (internal/authstate); ≤ 0 selects 1 (every block).
	// Larger values trade root freshness for maintenance cost — the
	// root-lag knob the authreads experiment sweeps.
	RootPublishEvery int
	// ProofCacheSize is the per-node proof-server cache budget in
	// entries (≤ 0 selects the authstate default).
	ProofCacheSize int
	// Ingress, when set, puts the ingress front door (internal/ingress)
	// in front of the network: Submit feeds a bounded deduplicating
	// mempool, the builder hands batches to the leader's transaction pool
	// with a bounded handoff, and arrival pressure drives the proposer's
	// block-cut size. Nil keeps the paper-faithful direct path.
	Ingress *ingress.Config
	// EngineHook, when set, wraps each node's state engine as it is
	// opened — including the fresh engine a recovering node rebuilds
	// onto. Tests inject failing engines through it; the chaos layer
	// injects write failures and fsync stalls.
	EngineHook func(storage.Engine) storage.Engine
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 100
	}
	if c.BlockInterval <= 0 {
		c.BlockInterval = 5 * time.Millisecond
	}
	if c.ExecutionWorkers <= 0 {
		c.ExecutionWorkers = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	return c
}

// Network is a running Quorum deployment.
type Network struct {
	cfg     Config
	net     *cluster.Network
	nodes   []*node
	clients system.Clients
	// door holds each submitted update pending: the front door's mempool
	// with Config.Ingress, the direct path's table otherwise.
	door *ingress.Door
	// reads serves read-only invocations: one node, no consensus.
	reads system.Blocking
	// blockCap is the proposer's current block-cut cap: Config.BlockSize
	// on the direct path, adaptively driven by the ingress builder's batch
	// size when the front door is on.
	blockCap atomic.Int64
	// flight holds each proposed block until a node decodes its first
	// copy; its Resend lap proposes again a block that a leader accepted
	// and then lost in a leader change (consensus/once.go).
	flight     consensus.Flight[struct{}]
	stopResend func()

	rr       uint64
	rrMu     sync.Mutex
	closeOne sync.Once
}

var _ system.System = (*Network)(nil)

// registry holds the contracts every node runs, KV and Smallbank; Execute
// only reads it.
var registry = contract.NewRegistry(contract.KV{}, contract.Smallbank{})

// node is one Quorum validator. Committed state lives in the shared
// striped state layer; the MPT commitment is node-local, maintained by
// the node's RootMaintainer worker off the commit path and read only
// through its published snapshots.
type node struct {
	// Replica is the node's lifecycle (internal/system): engines, loops,
	// crash, rebuild, catch-up, close. Delivered is the newest consensus
	// index the node has consumed.
	*system.Replica
	id   cluster.NodeID
	nw   *Network
	cons consensus.Node
	ep   *cluster.Endpoint
	pipe *pipeline.Pipeline[consensus.Entry, *nodeBlock]
	// free holds sealed blocks for the Decode stage to decode into again.
	free chan *nodeBlock
	// exec is the Apply stage's re-execution scratch, and pre the view the
	// proposer pins for each transaction it pre-executes: each serves one
	// goroutine, so neither allocates per block or per transaction.
	exec      pipeline.Executor
	pre       state.Snapshot
	pendingMu sync.Mutex
	pending   []*txn.Tx
	// win admits the first copy of each block in log order. Like
	// Delivered it follows the log through a crash: the restarted decode
	// stage admits the entries committed while the node was down, those
	// the recovery replay covered included.
	win consensus.Window
}

// admit reports whether committed entry e is a block's first copy in the
// log, admitting it through the node's Window and finishing its flight. A
// copy the Resend lap proposed again is not, and neither is the empty
// entry a new raft leader commits its inherited tail with.
func (n *node) admit(e consensus.Entry) bool {
	if len(e.Data) < consensus.Header {
		return false
	}
	id := binary.BigEndian.Uint64(e.Data)
	if !n.win.Admit(id, binary.BigEndian.Uint64(e.Data[8:])) {
		return false
	}
	n.nw.flight.Finish(id)
	return true
}

// nodeBlock is one node's in-flight view of a committed block moving
// through its pipeline: its own views of the entry's transactions (Raw
// nil on recovery replay, which appends the source's block) and what its
// stages compute about them.
type nodeBlock struct {
	txn.Block
	// authErrs holds per-transaction client-authentication failures
	// (pipeline Validate stage, stateless and worker-pooled).
	authErrs []error
	results  []system.Result
	// execDur is each transaction's execution time, for the trace of the
	// node that resolves it; a conflicted transaction's serial re-run
	// overwrites its speculative timing.
	execDur []time.Duration
	// commitErr surfaces a failed state or ledger commit to the block's
	// waiting clients instead of panicking the node (fabric's pattern).
	commitErr error
}

// New assembles and starts a Quorum network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Consensus == IBFT && cfg.Nodes < 4 {
		return nil, fmt.Errorf("quorum: IBFT needs ≥ 4 nodes, got %d", cfg.Nodes)
	}
	if cfg.CheckpointInterval > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("quorum: CheckpointInterval requires DataDir")
	}
	nw := &Network{
		cfg:        cfg,
		net:        cluster.NewNetwork(cluster.ZeroLink{}),
		stopResend: func() {}, // until New starts the lap
	}
	peers := make([]cluster.NodeID, cfg.Nodes)
	for i := range peers {
		peers[i] = cluster.NodeID(i)
	}
	// A failed node setup must tear down the nodes (and their consensus
	// instances) already started, not leak them.
	fail := func(err error) (*Network, error) {
		nw.Close()
		return nil, err
	}
	for _, id := range peers {
		n, err := nw.openNode(id)
		if err != nil {
			return fail(err)
		}
		ep := nw.net.Register(id, 8192)
		n.ep = ep
		switch cfg.Consensus {
		case Raft:
			n.cons = raft.New(raft.Config{ID: id, Peers: peers, Endpoint: ep})
		case IBFT:
			n.cons = ibft.New(ibft.Config{ID: id, Peers: peers, Endpoint: ep})
		}
		nw.nodes = append(nw.nodes, n)
	}
	nw.blockCap.Store(int64(cfg.BlockSize))
	door, err := ingress.NewDoor(cfg.Ingress, nw.ingestBatch, nw.execute, "quorum: commit timeout")
	if err != nil {
		return fail(fmt.Errorf("quorum: ingress: %w", err))
	}
	nw.door, nw.reads = door, system.NewBlocking(nw.query)
	for _, n := range nw.nodes {
		n.Run(n.proposeLoop, n.commitLoop)
	}
	nw.stopResend = nw.flight.Resend(func(entry []byte) bool {
		if n := nw.leaderOr(nil); n != nil {
			_ = n.cons.Propose(entry)
		}
		return true
	})
	return nw, nil
}

// openNode opens node id's replica and block pipeline: all of a node but
// its consensus member and endpoint.
func (nw *Network) openNode(id cluster.NodeID) (*node, error) {
	cfg := nw.cfg
	signer, err := cryptoutil.NewSigner(fmt.Sprintf("quorum-node-%d", id))
	if err != nil {
		return nil, fmt.Errorf("quorum node %d: signer: %w", id, err)
	}
	rep, err := system.OpenReplica(system.ReplicaConfig{
		Label:      fmt.Sprintf("quorum node %d", id),
		DataDir:    cfg.DataDir,
		Name:       fmt.Sprintf("node%d", id),
		Engine:     system.LSMEngine(cfg.EngineHook),
		Auth:       &authstate.Config{Signer: signer, PublishEvery: cfg.RootPublishEvery},
		ProofCache: cfg.ProofCacheSize,
		Checkpoint: recovery.Options{
			Interval:  cfg.CheckpointInterval,
			Mode:      cfg.CheckpointMode,
			FullEvery: cfg.CheckpointFullEvery,
		},
	})
	if err != nil {
		return nil, err
	}
	n := &node{Replica: rep, id: id, nw: nw, free: make(chan *nodeBlock, cfg.PipelineDepth+1)}
	n.pipe = pipeline.New(pipeline.Config{
		Workers: cfg.ExecutionWorkers,
		Depth:   cfg.PipelineDepth,
	}, pipeline.Stages[consensus.Entry, *nodeBlock]{
		Decode:   n.decodeBlock,
		Validate: n.validateBlock,
		Apply:    n.applyBlock,
		Seal:     n.sealBlock,
	})
	return n, nil
}

// Name implements system.System.
func (nw *Network) Name() string {
	if nw.cfg.Consensus == IBFT {
		return "quorum-ibft"
	}
	return "quorum-raft"
}

// RegisterClient makes a client identity known to all nodes; transactions
// from unknown clients are rejected at execution.
func (nw *Network) RegisterClient(name string, pub cryptoutil.PublicKey) {
	nw.clients.Register(name, pub)
}

// Execute implements system.System as the thin Submit+Wait wrapper.
func (nw *Network) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(nw, t)
}

// Submit implements system.System. Read-only invocations execute locally
// against one node and never enter a pending table; updates go through the
// ingress front door when one is configured, and otherwise open their
// entry in pending and run the direct pool-and-wait path on their own
// goroutine.
func (nw *Network) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	if t.Invocation.Method == "get" || t.Invocation.Method == "query" {
		return nw.reads.Submit(ctx, t)
	}
	return nw.door.Submit(ctx, t)
}

// pickLive returns a live node, round robin, or nil when none remain.
func (nw *Network) pickLive() *node {
	nw.rrMu.Lock()
	defer nw.rrMu.Unlock()
	for range nw.nodes {
		cand := nw.nodes[nw.rr%uint64(len(nw.nodes))]
		nw.rr++
		if !cand.Crashed() {
			return cand
		}
	}
	return nil
}

// leaderOr returns the current live consensus leader, falling back to
// fallback while no node leads (the proposeLoop re-routes strays).
func (nw *Network) leaderOr(fallback *node) *node {
	for _, cand := range nw.nodes {
		if cand.cons.IsLeader() && !cand.Crashed() {
			return cand
		}
	}
	return fallback
}

// query serves a read-only transaction on one live node (round robin),
// locally and without consensus (paper §2.1) — but it still pays client
// authentication, unlike a database.
func (nw *Network) query(t *txn.Tx) system.Result {
	n := nw.pickLive()
	if n == nil {
		return system.Result{Err: errors.New("quorum: no live nodes")}
	}
	return n.executeReadOnly(t)
}

// execute is the direct path of an update, run with its entry open in the
// door's table: it submits the transaction to a node (round robin) and
// waits until the block containing it commits.
func (nw *Network) execute(t *txn.Tx, await func() system.Result) system.Result {
	n := nw.pickLive()
	if n == nil {
		return system.Result{Err: errors.New("quorum: no live nodes")}
	}
	start := time.Now()
	// The transaction pool is shared cluster-wide in spirit: real Quorum
	// gossips pending transactions so the proposer sees them. Enqueue on
	// the current leader when known; the proposeLoop also re-routes any
	// strays after leadership changes.
	target := nw.leaderOr(n)
	target.pendingMu.Lock()
	target.pending = append(target.pending, t)
	target.pendingMu.Unlock()
	r := await()
	t.Trace.Observe(metrics.PhaseCommit, time.Since(start))
	return r
}

// ingestBatch is the ingress builder's sink: it hands one built batch to
// the leader's transaction pool under a bound, so a stalled proposer
// pushes back on the builder instead of accumulating unbounded pending
// work. It owns every handed transaction — each resolves either here
// (no live node, handoff timeout) or when the seal path resolves its
// mempool entry.
func (nw *Network) ingestBatch(txs []*txn.Tx) error {
	n := nw.pickLive()
	if n == nil {
		err := errors.New("quorum: no live nodes")
		for _, t := range txs {
			nw.door.Resolve(t.ID, system.Result{Err: err})
		}
		return err
	}
	// Adaptive block shape: let the proposer cut where arrival pressure
	// put this batch (never below the configured size, so the direct
	// path's behavior is a floor).
	nw.blockCap.Store(max(int64(len(txs)), int64(nw.cfg.BlockSize)))
	// Bounded handoff: wait briefly for pool space; a pool that stays
	// full is consensus pushing back, and the overload must shed at
	// admission rather than queue here.
	bound := 4 * int(nw.blockCap.Load())
	deadline := time.Now().Add(time.Second)
	for {
		target := nw.leaderOr(n)
		target.pendingMu.Lock()
		if len(target.pending)+len(txs) <= bound {
			target.pending = append(target.pending, txs...)
			target.pendingMu.Unlock()
			return nil
		}
		target.pendingMu.Unlock()
		if !time.Now().Before(deadline) {
			err := fmt.Errorf("%w: proposer pool full (%d pending)", ingress.ErrOverloaded, bound)
			for _, t := range txs {
				nw.door.Resolve(t.ID, system.Result{Err: err})
			}
			return err
		}
		//lint:allow sleepyloop bounded 1s handoff poll; proposer pool has no vacancy channel
		time.Sleep(time.Millisecond)
	}
}

// IngressStats returns the front door's counters; ok is false when the
// network runs without an ingress.
func (nw *Network) IngressStats() (ingress.Stats, bool) {
	return nw.door.Stats()
}

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// network's transport — the chaos layer's drop/delay/reorder seam.
func (nw *Network) SetFaults(hook cluster.FaultHook) { nw.net.SetFaults(hook) }

// ConsensusDropped sums the nodes' transport drop counters — the
// consensus-side overload signal, as opposed to admission sheds.
func (nw *Network) ConsensusDropped() uint64 {
	var total uint64
	for _, n := range nw.nodes {
		total += n.ep.Dropped()
	}
	return total
}

// executeReadOnly serves a query from local committed state.
func (n *node) executeReadOnly(t *txn.Tx) system.Result {
	var authErr error
	t.Trace.Time(metrics.PhaseAuth, func() {
		authErr = n.nw.clients.Verify(t)
	})
	if authErr != nil {
		return system.Result{Err: authErr}
	}
	var err error
	var value []byte
	t.Trace.Time(metrics.PhaseSimulate, func() {
		snap := n.St.Snapshot()
		defer snap.Release()
		_, err = registry.Execute(snap, t.Invocation)
		if inv := t.Invocation; err == nil && inv.Contract == "kv" && inv.Method == "get" && len(inv.Args) == 1 {
			if v, _, gerr := snap.Get(string(inv.Args[0])); gerr == nil {
				value = v
			}
		}
	})
	if err != nil {
		return system.Result{Reason: occ.OK, Err: err}
	}
	return system.Result{Committed: true, Value: value}
}

// proposeLoop batches pending transactions into blocks when this node
// leads consensus. The pre-execution of every transaction at the ledger
// tip happens here — serially, as in the real system.
func (n *node) proposeLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(n.nw.cfg.BlockInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if cand := n.nw.leaderOr(nil); cand != nil && cand != n {
			// Re-route stranded transactions to the current leader (the
			// txpool gossip a real node performs).
			n.pendingMu.Lock()
			stranded := n.pending
			n.pending = nil
			n.pendingMu.Unlock()
			if len(stranded) > 0 {
				cand.pendingMu.Lock()
				cand.pending = append(cand.pending, stranded...)
				cand.pendingMu.Unlock()
			}
			continue
		}
		// This node leads, or no live node does: the leader's execution
		// layer — over IBFT this height's proposer's, so every node's in
		// its turn — is down while its consensus member runs on. This node
		// then proposes through its own member, which forwards the block
		// there; during an election the member refuses it, and the batch
		// waits here for the next tick.
		cut := int(n.nw.blockCap.Load())
		n.pendingMu.Lock()
		batch := n.pending
		if len(batch) > cut {
			n.pending = batch[cut:]
			batch = batch[:cut]
		} else {
			n.pending = nil
		}
		n.pendingMu.Unlock()
		if len(batch) == 0 {
			continue
		}
		n.proposeBatch(batch)
	}
}

// proposeBatch pre-executes batch serially at the tip (order-execute: the
// proposer validates transactions before batching them) and proposes it
// as one block, its transactions encoded once into the entry consensus
// carries; a refused proposal puts the batch back at the head of the
// queue.
func (n *node) proposeBatch(batch []*txn.Tx) {
	size := consensus.Header
	for _, t := range batch {
		start := time.Now()
		n.St.SnapshotInto(&n.pre)
		_, _ = registry.Execute(&n.pre, t.Invocation)
		n.pre.Release()
		t.Trace.Observe(metrics.PhaseProposal, time.Since(start))
		size += t.EncodedLen()
	}
	entry := make([]byte, consensus.Header, size)
	for _, t := range batch {
		entry = t.AppendTo(entry)
	}
	id := n.nw.flight.Issue(entry, struct{}{})
	if err := n.cons.Propose(entry); err != nil {
		// Leadership moved between check and propose: the block is in no
		// log, so it leaves flight, and the batch is requeued.
		n.nw.flight.Finish(id)
		n.pendingMu.Lock()
		n.pending = append(batch, n.pending...)
		n.pendingMu.Unlock()
		return
	}
	n.nw.flight.Accepted(id)
}

// commitLoop drives the node's block pipeline over the consensus log until
// shutdown, from the entry after the last one the decode stage consumed:
// the first, or, after a recovery, the first committed while the node was
// down.
func (n *node) commitLoop(stop <-chan struct{}) {
	n.pipe.Run(consensus.NewReader(n.cons, n.Delivered.Load()+1).Next, stop)
}

// decodeBlock decodes the node's own views of a committed entry's block
// into a reused nodeBlock (pipeline Decode stage). Ledger height must track
// the consensus index exactly — block N is always entry N — or the
// recovery handoff (RecoverNode) could not align a ledger replay with the
// committed stream; an entry that is no block's first copy — a Resend
// duplicate, or the empty one a new raft leader commits its inherited
// tail with — or that does not decode therefore still passes through as
// an empty block, while entries at or below the recovery tip T1 (covered
// by a just-finished recovery replay, Replica.Consume) are admitted and
// dropped, because the replay already appended their ledger blocks.
func (n *node) decodeBlock(e consensus.Entry) (*nodeBlock, bool) {
	first := n.admit(e)
	if !n.Consume(e.Index) {
		return nil, false
	}
	var nb *nodeBlock
	select {
	case nb = <-n.free:
	default:
		nb = &nodeBlock{}
	}
	if first {
		_ = nb.Decode(e.Data[consensus.Header:]) // corrupt: an empty block
	}
	return nb, true
}

// release hands a sealed block back to the Decode stage; Reset zeroes its
// views, so nothing may read them past Seal.
func (n *node) release(nb *nodeBlock) {
	nb.Reset()
	nb.commitErr = nil
	select {
	case n.free <- nb:
	default:
	}
}

// validateBlock authenticates the block's clients across the worker pool
// (pipeline Validate stage) — the stateless check that can overlap the
// previous block's commit. In batch mode each worker chunk goes through
// one VerifyBatch pass instead of per-tx curve checks; verdicts are
// identical either way.
func (n *node) validateBlock(nb *nodeBlock) {
	nb.authErrs = append(nb.authErrs[:0], make([]error, len(nb.Txs))...)
	n.nw.clients.VerifyAll(nb.Txs, nb.authErrs, n.pipe.Workers(), n.nw.cfg.BatchVerify)
}

// applyBlock re-executes the block and commits state (pipeline Apply
// stage, strict block order). Re-execution is speculative: every
// transaction replays in parallel against the block's base state, and a
// deterministic serial fix-up re-runs only those whose reads overlap an
// earlier transaction's writes — so write-disjoint transactions replay
// concurrently while every replica still reaches the state the serial
// "double execution" would have produced.
func (n *node) applyBlock(nb *nodeBlock) {
	blockNum := n.Ledger.Height() + 1
	nb.results = append(nb.results[:0], make([]system.Result, len(nb.Txs))...)
	nb.execDur = append(nb.execDur[:0], make([]time.Duration, len(nb.Txs))...)
	rws, errs := n.exec.ExecuteBlock(len(nb.Txs), n.pipe.Workers(), blockNum, n.St,
		func(i int, view contract.StateReader) (txn.RWSet, error) {
			start := time.Now()
			defer func() { nb.execDur[i] = time.Since(start) }()
			if err := nb.authErrs[i]; err != nil {
				return txn.RWSet{}, err
			}
			return registry.Execute(view, nb.Txs[i].Invocation)
		})

	// Stage writes in block order (later writers win) and commit them as
	// one block; Replica.Commit hands the block's delta to the root
	// maintainer, whose worker does the per-block hashing of Fig 11 off
	// this path (internal/authstate). Submit only blocks when the
	// maintainer trails by a full queue — the backpressure that bounds root
	// staleness. A failed commit's error travels to Seal, which reports it
	// to every client waiting on the block.
	for i := range nb.Txs {
		if err := errs[i]; err != nil {
			if nb.authErrs[i] != nil {
				nb.results[i] = system.Result{Err: err}
			} else {
				nb.results[i] = system.Result{Reason: occ.OK, Err: err}
			}
			continue
		}
		n.Write(rws[i].Writes, txn.Version{BlockNum: blockNum, TxNum: uint32(i)})
		nb.results[i] = system.Result{Committed: true}
	}
	nb.commitErr = n.Commit(blockNum)
}

// sealBlock appends the ledger block and resolves the waiting clients
// (pipeline Seal stage, strict block order), then releases the block.
func (n *node) sealBlock(nb *nodeBlock) {
	if nb.commitErr == nil {
		// The header carries the latest *published* state commitment — the
		// seal path no longer waits for (or computes) this block's root, so
		// the commitment may trail Number by a bounded number of blocks
		// (authstate's queue depth plus the publish interval).
		// Blocks persist their transactions whole (marshalled, as real
		// Quorum blocks do), which is what makes the ledger a sufficient
		// replay source for crash recovery. The bytes are the proposer's,
		// in the entry itself; the transaction root over them is this
		// node's own.
		n.Seal(nb.Raw)
	}

	// The first node to seal a transaction resolves its waiting clients
	// (clients connect round-robin but wait in one table) and puts its own
	// execution time on the submitted transaction's trace. A commit that
	// failed reaches every client as an error rather than a silent exit.
	for i, t := range nb.Txs {
		r := nb.results[i]
		if nb.commitErr != nil {
			r = system.Result{Reason: r.Reason, Err: nb.commitErr}
		}
		n.nw.door.Seal(t.ID, r, metrics.PhaseExecute, nb.execDur[i])
	}

	// Checkpoint at this block's boundary, still on the committer (see
	// fabric's sealBlock for the contract).
	if nb.commitErr == nil {
		n.MaybeCheckpoint(n.Ledger.Height())
	}
	n.release(nb)
}

// CrashNode kills node i's execution layer (system.Replica.Crash):
// propose and commit loops stop and its in-memory state — values,
// versions, trie, ledger — is lost. Its consensus replica keeps running
// (a crashed leader's, or IBFT proposer's, member keeps sequencing the
// blocks the live nodes forward to it; see proposeLoop), and nothing reads
// the entries it commits until RecoverNode restarts the decode stage.
// Submission and query routing skip the node from now on.
func (nw *Network) CrashNode(i int) { nw.nodes[i].Crash() }

// RecoverNode rebuilds crashed node i from its newest on-disk checkpoint
// with height ≤ maxCkptHeight (0 = newest) plus a replay of the healthy
// node from's ledger through the node's own validate/apply pipeline
// stages — including the speculative parallel re-execution and the MPT
// reconstruction of live double execution — and then rejoins live block
// consumption (the sequence is system.Replica's): the restarted decode
// stage reads the log from the entry after Delivered, admits and drops
// those the replay already covered (Replica.Consume), and everything above flows
// through the ordinary pipeline; indexes align because block N is always
// entry N (empty-block pass-through in decode). The network may keep committing throughout — no quiesce is
// required. May be called after each crash; each call rebuilds from
// scratch.
func (nw *Network) RecoverNode(i, from int, maxCkptHeight uint64) (recovery.Stats, error) {
	n, src := nw.nodes[i], nw.nodes[from]
	// Read once, and before Rebuild's liveness check: Crash raises the
	// flag first and drops the ledger after, mid-replay included.
	srcLedger := src.Ledger
	stats, err := n.Rebuild(maxCkptHeight, src.Replica)
	if err != nil {
		return stats, err
	}
	err = n.CatchUpLedger(srcLedger, func(txs []*txn.Tx) error {
		nb := &nodeBlock{Block: txn.Block{Txs: txs}}
		n.validateBlock(nb) // client auth, worker-pooled
		n.applyBlock(nb)    // speculative re-execution + MPT, as live
		return nb.commitErr
	}, &stats)
	if err != nil {
		return stats, err
	}
	n.Restart(n.proposeLoop, n.commitLoop)
	return stats, nil
}

// Leader returns the index of the current consensus leader, or -1 while
// no node leads. Crash tests use it to pick a follower to kill.
func (nw *Network) Leader() int {
	for i, n := range nw.nodes {
		if n.cons.IsLeader() {
			return i
		}
	}
	return -1
}

// Checkpointer exposes node i's checkpointer (nil when disabled) for
// tests and the recovery experiment.
func (nw *Network) Checkpointer(i int) *recovery.Checkpointer { return nw.nodes[i].Ckpt }

// State exposes node i's striped state store (tests and inspection).
func (nw *Network) State(i int) *state.Store { return nw.nodes[i].St }

// Ledger exposes a node's ledger for verification in tests and examples.
func (nw *Network) Ledger(i int) *ledger.Ledger { return nw.nodes[i].Ledger }

// Auth exposes node i's root maintainer (nil on a crashed node) for
// tests and the authreads experiment.
func (nw *Network) Auth(i int) *authstate.RootMaintainer { return nw.nodes[i].Auth }

// Proofs exposes node i's proof server (nil on a crashed node) — the
// light-client read endpoint.
func (nw *Network) Proofs(i int) *authstate.ProofServer { return nw.nodes[i].Proofs }

// StateRoot returns node i's state commitment at its current ledger tip,
// waiting for the asynchronous maintainer to catch up to it (the
// synchronous answer tests and cross-replica comparisons expect).
func (nw *Network) StateRoot(i int) cryptoutil.Hash { return nw.nodes[i].stateRoot() }

// stateRoot is StateRoot for node n.
func (n *node) stateRoot() cryptoutil.Hash {
	if n.Auth == nil {
		return cryptoutil.Hash{}
	}
	tip := uint64(0)
	if n.Ledger != nil {
		tip = n.Ledger.Height()
	}
	if tip == 0 {
		return cryptoutil.Hash{}
	}
	if sr, err := n.Auth.WaitFor(tip, 30*time.Second); err == nil {
		return sr.Root
	}
	// PublishEvery > 1 never publishes non-multiple heights; fall back to
	// the freshest published root.
	if up, ok := n.Auth.Published(); ok {
		return up.Root.Root
	}
	return cryptoutil.Hash{}
}

// StateBytes returns node 0's state storage footprint (engine bytes plus
// MPT node store), for the storage experiments. It waits for the root
// maintainer to reach the ledger tip so the trie reflects every sealed
// block.
func (nw *Network) StateBytes() int64 {
	n := nw.nodes[0]
	size := n.St.ApproxSize()
	if n.Auth != nil && n.Ledger != nil {
		if tip := n.Ledger.Height(); tip > 0 {
			_, _ = n.Auth.WaitFor(tip, 30*time.Second)
		}
		if up, ok := n.Auth.Published(); ok {
			size += up.Snap.StorageBytes()
		}
	}
	return size
}

// Close implements system.System.
func (nw *Network) Close() {
	nw.closeOne.Do(func() {
		// Stop admission first: the builder drains or resolves what it
		// holds while the propose/commit paths below are still alive.
		nw.door.Close()
		nw.stopResend()
		for _, n := range nw.nodes {
			n.cons.Stop()
			n.Close()
		}
		nw.net.Close()
	})
}
