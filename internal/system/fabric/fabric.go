// Package fabric models Hyperledger Fabric v2.2, the paper's
// execute-order-validate blockchain.
//
// Transaction lifecycle (paper Fig 3b):
//
//  1. The client sends the proposal to every peer (the experiments set the
//     endorsement policy to all peers). Each peer authenticates the client,
//     simulates the chaincode against its committed state — concurrently,
//     execution is not serialized here — and signs the resulting read/write
//     set (endorsement).
//  2. The client checks that all endorsements report identical read sets;
//     divergence is the "inconsistent read" abort of Fig 10. A peer that
//     crashed while simulating answers from a closed engine; its
//     endorsement is dropped, and the rest go ahead if they still meet the
//     policy.
//  3. The assembled transaction goes to the ordering service (three Raft
//     orderers behind a shared-log facade), which batches it into blocks:
//     the order is taken from whichever orderer commits an entry first,
//     and a block is cut when BlockSize transactions are pending or
//     BlockTimeout after the previous cut. A transaction lost to an
//     orderer leader change is proposed again and ordered once.
//  4. Every peer pulls blocks and validates them through the shared
//     block pipeline (internal/pipeline). By default validation is
//     serial, as in the modelled system — endorsement signature checks
//     are the 42%-of-validation cost Fig 8 identifies. With
//     ValidationWorkers > 1 the signature checks fan out across a worker
//     pool (and overlap the previous block's commit at PipelineDepth
//     ≥ 2), and the MVCC read-set check runs as key-scheduled waves
//     with verdicts identical to the serial block order; stale reads
//     abort (read-write conflicts). Valid writes commit to the
//     LSM-backed state as one batch. Fabric v2 has no Merkle index on
//     state — tamper evidence comes from the ledger alone.
//
// The ordering service's records are the assembled transactions' wire
// bytes, encoded once where they enter ordering: every peer decodes its own
// views of a batch in its Decode stage and seals the records themselves
// into its ledger, so the log alone is enough to rebuild any peer.
//
// A peer's lifecycle — open, crash, rebuild from a checkpoint, catch up
// from a healthy peer's ledger, rejoin, close — is system.Replica's, shared
// with Quorum and the hybrid prototypes, and so is the landing of a
// validated block: the Apply stage stages the valid write sets with
// Replica.Write and commits them with Replica.Commit, the Seal stage
// appends the ledger block with Replica.Seal, live and in recovery replay
// alike. A crashed peer closes its subscription; RecoverPeer subscribes
// again right above its catch-up tip, as Veritas's verifiers do. This
// package supplies what distinguishes Fabric: the topology above, the LSM
// engine and the pipeline stages — when a block's effects are computed
// (endorsement, before ordering) and checked (validation, after it).
package fabric

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/authstate"
	"dichotomy/internal/cluster"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ingress"
	"dichotomy/internal/ledger"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/recovery"
	"dichotomy/internal/sharedlog"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// Config assembles a Fabric network.
type Config struct {
	// Peers is the number of endorsing/committing peers.
	Peers int
	// Orderers is the ordering service size (paper fixes 3).
	Orderers int
	// BlockSize caps transactions per block. Default 100.
	BlockSize int
	// BlockTimeout cuts a non-full block this long after the previous cut.
	// Default 5ms.
	BlockTimeout time.Duration
	// EndorsementsNeeded is how many endorsements a transaction must carry
	// to validate; the paper's policy requires all peers. 0 means all.
	EndorsementsNeeded int
	// ValidationWorkers sizes each peer's block-validation worker pool
	// (endorsement signature checks and MVCC wave scheduling). ≤ 0
	// selects 1 — the paper's serial validation, so the modelled system
	// stays faithful unless parallelism is asked for (the blockshape
	// experiment sweeps it).
	ValidationWorkers int
	// PipelineDepth is how many blocks a peer keeps in flight: validation
	// of block N+1 overlaps commit of block N at depth ≥ 2. ≤ 0 selects
	// 1 — no cross-block overlap, as in the real system.
	PipelineDepth int
	// DataDir, when set, puts each peer's LSM state on disk under
	// DataDir/peerN/state and its checkpoints under DataDir/peerN/ckpt.
	// Empty keeps peers memory-only, as before.
	DataDir string
	// CheckpointInterval writes a block-consistent checkpoint of state
	// (values and versions) every this many blocks, on the committer after
	// sealing. 0 disables checkpointing. Requires DataDir.
	CheckpointInterval uint64
	// CheckpointKeep is how many checkpoints each peer retains (older
	// ones are pruned; retention extends to the full snapshot a kept
	// delta depends on). ≤ 0 keeps 2. The recovery experiment keeps them
	// all to rehearse crashes at any height.
	CheckpointKeep int
	// CheckpointMode selects full checkpoints (the whole store,
	// serialized synchronously on the committer) or delta checkpoints
	// (only the keys dirtied since the last checkpoint, serialized off
	// the committer by a worker, with a full snapshot folded in every
	// CheckpointFullEvery checkpoints). Default full.
	CheckpointMode recovery.Mode
	// CheckpointFullEvery is the delta-mode compaction period (≤ 0
	// selects the recovery package default).
	CheckpointFullEvery int
	// BatchVerify switches the validate stage from one VerifyDigest per
	// endorsement to one cryptoutil.VerifyBatch pass per worker chunk:
	// amortized checks through the verified-signature cache, per-batch
	// cost accounting (BatchVerifyOps), and bisection to isolate exactly
	// the corrupt transaction when a batch fails. Per-tx verdicts are
	// identical to the serial path.
	BatchVerify bool
	// AggregateEndorsements makes the submitting client's leader peer
	// cosign the assembled endorsement set (commitment over the
	// co-signature bytes, leader-signed), so committers verify one
	// threshold check per transaction instead of one per endorser.
	// Committers fall back to per-signature verification whenever the
	// aggregate check fails, preserving exact verdicts. Takes precedence
	// over BatchVerify on the validate path.
	AggregateEndorsements bool
	// AuthState, when set, gives every peer an off-commit-path
	// authenticated state commitment (internal/authstate): the committer
	// hands each block's write set to a per-peer RootMaintainer, sealed
	// headers carry the latest published signed root, and a per-peer
	// ProofServer answers verified light-client reads. Off by default —
	// real Fabric v2 has no Merkle index over state (that absence is
	// Fig 12's point) — so the storage experiments are unaffected.
	AuthState bool
	// Ingress, when set, puts the ingress front door (internal/ingress)
	// in front of the network: Submit feeds a bounded deduplicating
	// mempool, an adaptive builder endorses admitted batches and drives
	// the ordering service's block cutting from arrival pressure, and
	// overload sheds at admission with ingress.ErrOverloaded instead of
	// queueing without bound. Nil keeps the paper-faithful direct path.
	Ingress *ingress.Config
	// EngineHook, when set, wraps every peer's state engine as it is
	// opened — including the fresh engine a recovering peer rebuilds
	// onto. The chaos layer injects write failures and fsync stalls here.
	EngineHook func(storage.Engine) storage.Engine
}

func (c Config) withDefaults() Config {
	if c.Peers <= 0 {
		c.Peers = 4
	}
	if c.Orderers <= 0 {
		c.Orderers = 3
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 100
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 5 * time.Millisecond
	}
	if c.ValidationWorkers <= 0 {
		c.ValidationWorkers = 1
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	return c
}

// Network is a running Fabric deployment.
type Network struct {
	cfg      Config
	net      *cluster.Network
	peers    []*peer
	ordering *sharedlog.Service
	clients  system.Clients
	peerKeys map[string]cryptoutil.PublicKey
	// door holds each submitted update pending: the front door's mempool
	// with Config.Ingress, the direct path's table otherwise.
	door *ingress.Door
	// reads serves read-only invocations: one peer, never ordered.
	reads system.Blocking

	// Breakdown aggregates validate-phase sub-costs for Fig 8.
	Breakdown *metrics.Breakdown

	rr       atomic.Uint64 // round-robin query routing
	closeOne sync.Once
}

var _ system.System = (*Network)(nil)

// registry holds the contracts every peer runs, KV and Smallbank; Execute
// only reads it.
var registry = contract.NewRegistry(contract.KV{}, contract.Smallbank{})

// peer is one endorsing/committing peer. Committed state lives in the
// shared striped state layer: endorsement simulates against a consistent
// snapshot while validation and block commit go through the store's
// grouped batch path, so signature verification no longer serializes
// endorsements behind a global state lock. Block processing runs on the
// shared staged pipeline: signature verification fans out across the
// validation worker pool (and overlaps the previous block's commit at
// depth ≥ 2), while the MVCC check and state/ledger commit stay in
// strict block order on the committer side.
type peer struct {
	// Replica is the peer's lifecycle (internal/system): engines, loops,
	// crash, rebuild, catch-up, close. Delivered is the newest
	// ordering-batch sequence the peer has consumed.
	*system.Replica
	name     string
	nw       *Network
	signer   *cryptoutil.Signer
	consumer *sharedlog.Consumer
	pipe     *pipeline.Pipeline[sharedlog.Batch, *fabricBlock]
	// free holds sealed blocks for the Decode stage to decode into again,
	// so a peer's views and slabs are reused rather than reallocated.
	free chan *fabricBlock
	// keys looks an endorser's key up for the Validate stage, built once.
	keys func(name string) (cryptoutil.PublicKey, bool)
	// mvcc and sets are the Apply stage's scratch, kept from block to
	// block; neither holds a block's sets once the block is applied.
	mvcc pipeline.Validator
	sets []txn.RWSet
}

// fabricBlock is one decoded block moving through a peer's pipeline: the
// peer's own views of the batch's records (Raw is nil on recovery replay,
// which appends the source's block as is) and what its stages compute
// about them.
type fabricBlock struct {
	txn.Block
	verdicts []occ.AbortReason
	// valDur and applyStart together measure the validate phase as time
	// spent in the Validate and Apply/Seal stages only — at depth ≥ 2 a
	// block can also sit queued behind its predecessor's commit, and that
	// wait is pipeline occupancy, not validation cost.
	valDur     time.Duration
	applyStart time.Time
	sigNanos   atomic.Int64 // summed endorsement-verification CPU time
	// commitErr surfaces a failed state or ledger commit to the block's
	// clients instead of panicking the peer.
	commitErr error
}

// New assembles and starts a Fabric network.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointInterval > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("fabric: CheckpointInterval requires DataDir")
	}
	nw := &Network{
		cfg:       cfg,
		net:       cluster.NewNetwork(cluster.ZeroLink{}),
		peerKeys:  make(map[string]cryptoutil.PublicKey),
		Breakdown: metrics.NewBreakdown(),
	}
	nw.ordering = sharedlog.New(sharedlog.Config{
		Net:          nw.net,
		NodeBase:     10000,
		Orderers:     cfg.Orderers,
		BatchSize:    cfg.BlockSize,
		BatchTimeout: cfg.BlockTimeout,
	})
	// The ordering service is already running; a failed peer setup must
	// tear down everything started so far, not leak it.
	fail := func(err error) (*Network, error) {
		nw.Close()
		return nil, err
	}
	for i := 0; i < cfg.Peers; i++ {
		name := fmt.Sprintf("peer%d", i)
		signer, err := cryptoutil.NewSigner(name)
		if err != nil {
			return fail(err)
		}
		p, err := nw.openPeer(name, signer)
		if err != nil {
			return fail(err)
		}
		nw.peers = append(nw.peers, p)
		nw.peerKeys[name] = signer.Public()
	}
	door, err := ingress.NewDoor(cfg.Ingress, nw.ingestBatch, nw.execute, "fabric: commit timeout")
	if err != nil {
		return fail(fmt.Errorf("fabric: ingress: %w", err))
	}
	nw.door, nw.reads = door, system.NewBlocking(nw.query)
	for _, p := range nw.peers {
		p.consumer = nw.ordering.Subscribe(1)
		p.Run(p.commitLoop)
	}
	return nw, nil
}

// openPeer opens the replica and block pipeline of a peer that endorses as
// signer: all of a peer but its subscription.
func (nw *Network) openPeer(name string, signer *cryptoutil.Signer) (*peer, error) {
	cfg := nw.cfg
	rc := system.ReplicaConfig{
		Label:   "fabric " + name,
		DataDir: cfg.DataDir,
		Name:    name,
		Engine:  system.LSMEngine(cfg.EngineHook),
		Checkpoint: recovery.Options{
			Interval:  cfg.CheckpointInterval,
			Keep:      cfg.CheckpointKeep,
			Mode:      cfg.CheckpointMode,
			FullEvery: cfg.CheckpointFullEvery,
		},
	}
	if cfg.AuthState {
		rc.Auth = &authstate.Config{Signer: signer}
	}
	rep, err := system.OpenReplica(rc)
	if err != nil {
		return nil, err
	}
	p := &peer{Replica: rep, name: name, nw: nw, signer: signer, free: make(chan *fabricBlock, cfg.PipelineDepth+1)}
	p.keys = func(name string) (cryptoutil.PublicKey, bool) {
		pub, ok := nw.peerKeys[name]
		return pub, ok
	}
	p.pipe = pipeline.New(pipeline.Config{
		Workers: cfg.ValidationWorkers,
		Depth:   cfg.PipelineDepth,
	}, pipeline.Stages[sharedlog.Batch, *fabricBlock]{
		Decode:   p.decodeBlock,
		Validate: p.validateBlock,
		Apply:    p.applyBlock,
		Seal:     p.sealBlock,
	})
	return p, nil
}

// Name implements system.System.
func (nw *Network) Name() string { return "fabric" }

// RegisterClient makes a client identity known to all peers.
func (nw *Network) RegisterClient(name string, pub cryptoutil.PublicKey) {
	nw.clients.Register(name, pub)
}

// needed returns the endorsement threshold. The default policy requires
// all peers; deployments that want to survive a peer crash set an
// explicit EndorsementsNeeded < Peers so the threshold stays constant
// across crash and recovery (validation verdicts must not depend on when
// a block is validated — replay re-checks them).
func (nw *Network) needed() int {
	if nw.cfg.EndorsementsNeeded > 0 {
		return nw.cfg.EndorsementsNeeded
	}
	return len(nw.peers)
}

// livePeers returns the peers whose commit pipelines are running: nw.peers
// itself while none is down, which the caller must not modify.
func (nw *Network) livePeers() []*peer {
	if !slices.ContainsFunc(nw.peers, (*peer).Crashed) {
		return nw.peers
	}
	out := make([]*peer, 0, len(nw.peers))
	for _, p := range nw.peers {
		if !p.Crashed() {
			out = append(out, p)
		}
	}
	return out
}

// Execute implements system.System as the thin Submit+Wait wrapper.
func (nw *Network) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(nw, t)
}

// Submit implements system.System. Read-only invocations are served from
// a single peer without ordering and never enter a pending table; updates
// go through the ingress front door when one is configured, and otherwise
// open their entry in pending and run the direct execute path on their own
// goroutine.
func (nw *Network) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	if t.Invocation.Method == "get" || t.Invocation.Method == "query" {
		return nw.reads.Submit(ctx, t)
	}
	return nw.door.Submit(ctx, t)
}

// query serves a read-only invocation from one live peer. Queries are
// never ordered; the dominant cost is client authentication (Fig 8b).
func (nw *Network) query(t *txn.Tx) system.Result {
	live := nw.livePeers()
	if len(live) == 0 {
		return system.Result{Err: errors.New("fabric: no live peers")}
	}
	p := live[int(nw.rr.Add(1))%len(live)]
	var snap state.Snapshot
	if _, _, err := p.endorse(t, &snap); err != nil {
		return system.Result{Err: err}
	}
	return system.Result{Committed: true, Value: p.readValue(t.Invocation)}
}

// execute is the direct path of an update, run with its entry open in the
// door's table: the full execute-order-validate lifecycle. What it returns
// answers everyone attached, unless the seal path did first.
func (nw *Network) execute(t *txn.Tx, await func() system.Result) system.Result {
	live := nw.livePeers()

	// Phase 1: endorsement — every live peer simulates concurrently. A
	// crashed peer contributes nothing; the transaction fails here if the
	// policy still requires it.
	if len(live) < nw.needed() {
		return system.Result{Err: fmt.Errorf("fabric: %d live peers, endorsement policy needs %d", len(live), nw.needed())}
	}
	if r, ok := nw.endorseAndAssemble(t, live); !ok {
		return r
	}

	// Phase 2: ordering. The transaction is encoded once, into the entry
	// the orderers' logs carry; every peer decodes its own copy of it.
	orderStart := time.Now()
	if err := nw.ordering.AppendEntry(ordered(t)); err != nil {
		return system.Result{Err: err}
	}
	r := await()
	t.Trace.Observe(metrics.PhaseOrder, time.Since(orderStart))
	return r
}

// endorseAndAssemble runs phase 1 for one update transaction against the
// given live set: parallel endorsement on every peer, the client-side
// read-consistency check, and assembly of the endorsement set onto t.
// ok reports whether t may proceed to ordering; when false the returned
// Result is the final verdict. Shared by the direct execute path and the
// ingress batch sink.
func (nw *Network) endorseAndAssemble(t *txn.Tx, live []*peer) (system.Result, bool) {
	start := time.Now()
	f := &fanout{t: t}
	results := slices.Grow(f.inline[:0], len(live))[:len(live)]
	f.wg.Add(len(live) - 1)
	for i, p := range live[1:] {
		go f.endorse(&results[i+1], p)
	}
	results[0].rw, results[0].sig, results[0].err = live[0].endorse(t, &results[0].snap)
	f.wg.Wait()
	t.Trace.Observe(metrics.PhaseProposal, time.Since(start))
	// A peer crashed mid-simulation answers from its closed engine. Its
	// endorsement is dropped; the others stand if the policy can do without
	// it. Any other error fails the transaction as before.
	var closed error
	for i, r := range results {
		switch {
		case r.err == nil:
		case errors.Is(r.err, storage.ErrClosed) && live[i].Crashed():
			if closed == nil {
				closed = r.err
			}
		default:
			return system.Result{Err: r.err}, false
		}
	}
	endorsers := live
	if closed != nil {
		endorsers = nil
		kept := results[:0]
		for i, r := range results {
			if r.err == nil {
				endorsers, kept = append(endorsers, live[i]), append(kept, r)
			}
		}
		if len(kept) < nw.needed() {
			return system.Result{Err: closed}, false
		}
		results = kept
	}
	// Client-side consistency check across endorsers.
	var inline [4]txn.RWSet
	sets := inline[:0]
	for _, r := range results {
		sets = append(sets, r.rw)
	}
	if !occ.ConsistentReads(sets) {
		return system.Result{Reason: occ.InconsistentRead}, false
	}

	// Assemble: adopt the first simulation result plus all signatures.
	t.RWSet = results[0].rw
	t.Endorsements = slices.Grow(t.Endorsements[:0], len(endorsers))
	t.AggEndorsement = nil
	for i, p := range endorsers {
		t.Endorsements = append(t.Endorsements, txn.Endorsement{Peer: p.name, Sig: results[i].sig})
	}
	if nw.cfg.AggregateEndorsements {
		// The first endorser acts as aggregation leader: it has just
		// verified its own endorsement inputs, and every committer knows
		// its key. Committers that distrust the aggregate fall back to
		// per-signature checks, so a bad cosign only costs the fast path.
		if err := t.Cosign(endorsers[0].signer); err != nil {
			return system.Result{Err: fmt.Errorf("fabric: aggregate endorsement: %w", err)}, false
		}
	}
	return system.Result{}, true
}

// fanout is one transaction's endorsement round in one allocation: the
// WaitGroup the round waits on and each endorser's answer, with the
// snapshot it simulated against, inline for up to four endorsers — the
// paper's deployment.
type fanout struct {
	t      *txn.Tx
	wg     sync.WaitGroup
	inline [4]endorsement
}

// endorsement is one endorser's answer in a fan-out.
type endorsement struct {
	rw   txn.RWSet
	sig  cryptoutil.Signature
	err  error
	snap state.Snapshot
}

// endorse runs one endorser of the round on its own goroutine.
func (f *fanout) endorse(e *endorsement, p *peer) {
	defer f.wg.Done()
	e.rw, e.sig, e.err = p.endorse(f.t, &e.snap)
}

// ingestBatch is the ingress builder's sink: it owns every transaction
// handed to it and resolves each one, either immediately (endorsement
// failure, ordering unavailable) or through the mempool's entry, which
// the commit pipeline resolves when it seals the block. The returned error is purely a
// throttle signal to the builder.
func (nw *Network) ingestBatch(txs []*txn.Tx) error {
	live := nw.livePeers()
	if len(live) < nw.needed() {
		err := fmt.Errorf("fabric: %d live peers, endorsement policy needs %d", len(live), nw.needed())
		for _, t := range txs {
			nw.door.Resolve(t.ID, system.Result{Err: err})
		}
		return err
	}
	// Endorse the batch CPU-parallel — each transaction already fans out
	// across peers, but signature verification and simulation are the
	// builder's real cost and must not serialize block building.
	workers := min(runtime.GOMAXPROCS(0), len(txs))
	results := make([]system.Result, len(txs))
	proceed := make([]bool, len(txs))
	pipeline.Parallel(workers, len(txs), func(i int) {
		results[i], proceed[i] = nw.endorseAndAssemble(txs[i], live)
	})
	survivors := 0
	for i, t := range txs {
		if !proceed[i] {
			nw.door.Resolve(t.ID, results[i])
			continue
		}
		survivors++
	}
	if survivors == 0 {
		return nil
	}
	// Adaptive block shape: cut the next ordering batch where arrival
	// pressure put this one — small under light load, at the blockshape
	// optimum under pressure.
	nw.ordering.SetBatchSize(survivors)
	var throttle error
	for i, t := range txs {
		if !proceed[i] {
			continue
		}
		if err := nw.ordering.AppendEntryBounded(ordered(t), time.Second); err != nil {
			nw.door.Resolve(t.ID, system.Result{
				Err: fmt.Errorf("%w: ordering unavailable: %v", ingress.ErrOverloaded, err),
			})
			throttle = err
		}
	}
	return throttle
}

// ordered is t's shared-log entry: its wire bytes, encoded once, behind the
// room the ordering service's header takes. The same bytes are what every
// peer decodes and seals.
func ordered(t *txn.Tx) []byte { return t.AppendTo(sharedlog.NewEntry(t.EncodedLen())) }

// IngressStats returns the front door's counters; ok is false when the
// network runs without an ingress.
func (nw *Network) IngressStats() (ingress.Stats, bool) {
	return nw.door.Stats()
}

// ConsensusDropped sums the ordering service's transport drop counters —
// the consensus-side overload signal, as opposed to admission sheds.
func (nw *Network) ConsensusDropped() uint64 { return nw.ordering.Dropped() }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// network's transport — the chaos layer's drop/delay/reorder seam.
func (nw *Network) SetFaults(hook cluster.FaultHook) { nw.net.SetFaults(hook) }

// readValue extracts a point-read result for KV queries.
func (p *peer) readValue(inv txn.Invocation) []byte {
	if inv.Contract != "kv" || inv.Method != "get" || len(inv.Args) != 1 {
		return nil
	}
	v, _, err := p.St.Get(string(inv.Args[0]))
	if err != nil {
		return nil
	}
	return v
}

// endorse authenticates, simulates, and signs on one peer. The simulation
// pins snap, which must not be pinned, for its duration.
func (p *peer) endorse(t *txn.Tx, snap *state.Snapshot) (txn.RWSet, cryptoutil.Signature, error) {
	var authErr error
	t.Trace.Time(metrics.PhaseAuth, func() {
		pub, ok := p.nw.clients.Key(t.Client)
		if !ok {
			authErr = fmt.Errorf("fabric: unknown client %s", t.Client)
			return
		}
		// Every endorsing peer authenticates the same submission; the
		// verified-signature cache (with single-flight on concurrent
		// misses) makes an E-peer endorsement cost one curve check
		// instead of E.
		authErr = t.VerifyClientCached(pub)
	})
	if authErr != nil {
		return txn.RWSet{}, cryptoutil.Signature{}, authErr
	}
	var rw txn.RWSet
	var simErr error
	t.Trace.Time(metrics.PhaseSimulate, func() {
		p.St.SnapshotInto(snap)
		defer snap.Release()
		rw, simErr = registry.Execute(snap, t.Invocation)
	})
	if simErr != nil {
		// A business rejection (contract.ErrAbort) reaches the client as
		// an application abort.
		return txn.RWSet{}, cryptoutil.Signature{}, simErr
	}
	var sig cryptoutil.Signature
	var sigErr error
	t.Trace.Time(metrics.PhaseEndorse, func() {
		sig, sigErr = p.signer.SignDigest(txn.EndorsementDigestOf(t.ID, rw))
	})
	return rw, sig, sigErr
}

// commitLoop drives the peer's block pipeline over the ordering service's
// batch stream until shutdown.
func (p *peer) commitLoop(stop <-chan struct{}) {
	p.pipe.Run(p.consumer.Next, stop)
}

// decodeBlock decodes the peer's own views of a batch's records into a
// reused block (pipeline Decode stage). A record that does not decode is
// skipped, and batches that decode to zero transactions still pass
// through as empty blocks: ledger height must track the ordering
// sequence exactly — block N is always batch N — or the recovery handoff
// (RecoverPeer) could not align a ledger replay with a log subscription.
// The subscription starts above the recovery tip, so Consume never skips.
func (p *peer) decodeBlock(batch sharedlog.Batch) (*fabricBlock, bool) {
	if !p.Consume(batch.Seq) {
		return nil, false
	}
	var b *fabricBlock
	select {
	case b = <-p.free:
	default:
		b = &fabricBlock{}
	}
	for _, rec := range batch.Records {
		_ = b.DecodeOne(rec) // a foreign record: skipped, the block kept
	}
	return b, true
}

// release hands a sealed block back to the Decode stage. Nothing reads its
// views past Seal: Reset zeroes them, so a late reader would see empty
// transactions, and under the race detector a race with the next decode.
func (p *peer) release(b *fabricBlock) {
	b.Reset()
	*b = fabricBlock{Block: b.Block, verdicts: b.verdicts}
	select {
	case p.free <- b:
	default:
	}
}

// validateBlock runs the stateless half of validation — the endorsement
// signature checks that dominate Fig 8 — across the worker pool (pipeline
// Validate stage). At depth ≥ 2 this overlaps the previous block's commit.
//
// Three modes, all producing identical per-tx verdicts: aggregate (one
// threshold check per tx, serial fallback on aggregate failure), batch
// (one VerifyBatch pass per worker chunk, bisection isolating corrupt
// txs), and the default serial per-endorsement loop.
func (p *peer) validateBlock(b *fabricBlock) {
	start := time.Now()
	defer func() { b.valDur = time.Since(start) }()
	b.verdicts = append(b.verdicts[:0], make([]occ.AbortReason, len(b.Txs))...)
	keys := p.keys
	switch {
	case p.nw.cfg.AggregateEndorsements:
		pipeline.Parallel(p.pipe.Workers(), len(b.Txs), func(i int) {
			sigStart := time.Now()
			err := b.Txs[i].VerifyEndorsementsAggregate(keys, p.nw.needed())
			b.sigNanos.Add(int64(time.Since(sigStart)))
			if err != nil {
				b.verdicts[i] = occ.InconsistentRead // endorsement failure
			}
		})
	case p.nw.cfg.BatchVerify:
		pipeline.ParallelChunks(p.pipe.Workers(), len(b.Txs), func(lo, hi int) {
			sigStart := time.Now()
			errs := txn.VerifyEndorsementsBatch(b.Txs[lo:hi], keys, p.nw.needed())
			b.sigNanos.Add(int64(time.Since(sigStart)))
			for i, err := range errs {
				if err != nil {
					b.verdicts[lo+i] = occ.InconsistentRead // endorsement failure
				}
			}
		})
	default:
		pipeline.Parallel(p.pipe.Workers(), len(b.Txs), func(i int) {
			sigStart := time.Now()
			err := b.Txs[i].VerifyEndorsements(keys, p.nw.needed())
			b.sigNanos.Add(int64(time.Since(sigStart)))
			if err != nil {
				b.verdicts[i] = occ.InconsistentRead // endorsement failure
			}
		})
	}
}

// applyBlock validates reads and commits state (pipeline Apply stage,
// strict block order). The MVCC check runs as key-scheduled waves with
// verdicts identical to the serial in-block-order pass; the commit loop
// is the store's only writer, so validating against the live store is
// stable without holding any lock across the block.
func (p *peer) applyBlock(b *fabricBlock) {
	b.applyStart = time.Now()
	blockNum := p.Ledger.Height() + 1
	sets := slices.Grow(p.sets[:0], len(b.Txs))[:len(b.Txs)] // zero: cleared after each block
	for i, t := range b.Txs {
		if b.verdicts[i] == occ.OK {
			sets[i] = t.RWSet
		}
	}
	mvccVerdicts := p.mvcc.ValidateWaves(sets, p.St, blockNum, p.pipe.Workers())
	clear(sets) // hold no view past the block
	p.sets = sets[:0]
	for i := range b.verdicts {
		if b.verdicts[i] == occ.OK {
			b.verdicts[i] = mvccVerdicts[i]
		}
	}

	// Stage valid write sets and commit them as one block (Replica.Commit:
	// grouped by stripe, flushed through the engine's batch fast path, the
	// delta handed to the root maintainer). A failed commit's error travels
	// to Seal, which reports it to every client waiting on the block.
	for i, t := range b.Txs {
		if b.verdicts[i] == occ.OK {
			p.Write(t.RWSet.Writes, txn.Version{BlockNum: blockNum, TxNum: uint32(i)})
		}
	}
	b.commitErr = p.Commit(blockNum)
}

// sealBlock appends the ledger block and resolves the waiting clients
// (pipeline Seal stage, strict block order), then releases the block.
// Blocks persist their transactions whole (marshalled, as real Fabric
// blocks do), which is what makes the ledger a sufficient replay source
// for crash recovery. The bytes are the ordering service's records
// themselves; the transaction root over them is this peer's own. The
// first peer to seal a transaction puts its validate time on the submitted
// transaction's trace.
func (p *peer) sealBlock(b *fabricBlock) {
	if b.commitErr == nil {
		// With AuthState on, headers carry the latest published signed root.
		p.Seal(b.Raw)
	}

	validate := b.valDur + time.Since(b.applyStart)
	p.nw.Breakdown.Observe(metrics.PhaseValidate, validate)
	p.nw.Breakdown.Observe("validate-sig", time.Duration(b.sigNanos.Load()))

	for i, t := range b.Txs {
		var r system.Result
		if b.commitErr != nil {
			r = system.Result{Reason: b.verdicts[i], Err: b.commitErr}
		} else {
			r = system.Result{Committed: b.verdicts[i] == occ.OK, Reason: b.verdicts[i]}
		}
		p.nw.door.Seal(t.ID, r, metrics.PhaseValidate, validate)
	}

	// Checkpoint after the clients are answered, still on the committer.
	// The synchronous write is the commit-path cost the
	// checkpoint-interval experiment measures.
	if b.commitErr == nil {
		p.MaybeCheckpoint(p.Ledger.Height())
	}
	p.release(b)
}

// CrashPeer kills peer i (system.Replica.Crash): its commit pipeline stops,
// its subscription closes, and its in-memory state — values, versions,
// ledger — is lost. The ordering service retains every batch, so nothing
// has to read on its behalf while it is down. Endorsement and query
// routing skip it from now on.
func (nw *Network) CrashPeer(i int) {
	if p := nw.peers[i]; p.Crash() {
		p.consumer.Close()
	}
}

// RecoverPeer rebuilds crashed peer i from its newest on-disk checkpoint
// with height ≤ maxCkptHeight (0 = newest available — maxCkptHeight
// models how far checkpointing had gotten when the crash hit) plus a
// replay of the healthy peer from's ledger through the peer's own
// validate/apply pipeline stages, and then rejoins live block consumption
// (the sequence is system.Replica's). Fabric's rejoin step is a new
// subscription exactly one past the replay tip T1: the service retains
// every batch, and batch N is block N. The network may keep committing
// throughout — no quiesce is required. RecoverPeer may be called after
// each crash; each call rebuilds from scratch.
func (nw *Network) RecoverPeer(i, from int, maxCkptHeight uint64) (recovery.Stats, error) {
	p, src := nw.peers[i], nw.peers[from]
	// Read once, and before Rebuild's liveness check: Crash raises the
	// flag first and drops the ledger after, mid-replay included.
	srcLedger := src.Ledger
	stats, err := p.Rebuild(maxCkptHeight, src.Replica)
	if err != nil {
		return stats, err
	}
	err = p.CatchUpLedger(srcLedger, func(txs []*txn.Tx) error {
		b := &fabricBlock{Block: txn.Block{Txs: txs}}
		p.validateBlock(b) // endorsement signature checks, worker-pooled
		p.applyBlock(b)    // MVCC waves + state commit, as live
		return b.commitErr
	}, &stats)
	if err != nil {
		return stats, err
	}
	p.consumer = nw.ordering.Subscribe(stats.TipHeight + 1)
	p.Restart(p.commitLoop)
	return stats, nil
}

// Checkpointer exposes peer i's checkpointer (nil when disabled) for
// tests and the recovery experiment.
func (nw *Network) Checkpointer(i int) *recovery.Checkpointer { return nw.peers[i].Ckpt }

// State exposes peer i's striped state store (tests and inspection).
func (nw *Network) State(i int) *state.Store { return nw.peers[i].St }

// Ledger exposes peer i's ledger.
func (nw *Network) Ledger(i int) *ledger.Ledger { return nw.peers[i].Ledger }

// Auth exposes peer i's root maintainer (nil unless Config.AuthState).
func (nw *Network) Auth(i int) *authstate.RootMaintainer { return nw.peers[i].Auth }

// Proofs exposes peer i's proof server (nil unless Config.AuthState) —
// the light-client read endpoint.
func (nw *Network) Proofs(i int) *authstate.ProofServer { return nw.peers[i].Proofs }

// StateBytes returns peer 0's state footprint; BlockBytes its ledger
// footprint (Fig 12's two series).
func (nw *Network) StateBytes() int64 { return nw.peers[0].St.ApproxSize() }

// BlockBytes returns peer 0's ledger storage footprint.
func (nw *Network) BlockBytes() int64 { return nw.peers[0].Ledger.StorageSize() }

// Close implements system.System.
func (nw *Network) Close() {
	nw.closeOne.Do(func() {
		// Stop admission first: the builder drains or resolves what it
		// holds while the ordering path below is still alive.
		nw.door.Close()
		nw.ordering.Stop()
		for _, p := range nw.peers {
			p.Close()
		}
		nw.net.Close()
	})
}
