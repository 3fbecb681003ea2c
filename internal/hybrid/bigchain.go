package hybrid

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/pbft"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/recovery"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/lsm"
	"dichotomy/internal/storage/memdb"
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
	cfg      BigchainConfig
	net      *cluster.Network
	nodes    []*bigchainNode
	box      *system.PayloadBox
	waiters  *system.Waiters[cryptoutil.Hash]
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
	// Link models the network.
	Link cluster.LinkModel
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
// the drain/decode/commit skeleton uniform, and execution concurrency
// stays capped by the ledger order, as the paper's model demands.
type bigchainNode struct {
	b      *Bigchain
	idx    int
	cons   consensus.Node
	st     *state.Store
	reg    *contract.Registry
	pipe   *pipeline.Pipeline[consensus.Entry, *txn.Tx]
	ckpt   *recovery.Checkpointer // nil when checkpointing is off
	height atomic.Uint64
	// applied retains every applied transaction, marshalled, in apply
	// order — BigchainDB stores its blocks in the local database, and
	// this retained history is what a crashed peer replays from.
	appliedMu sync.Mutex
	applied   [][]byte
	stopCh    chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	crashed   atomic.Bool
	// delivered counts the transactions this node has consumed from its
	// commit stream (live decode or crash-time drain). PBFT totally
	// orders transactions and every entry carries exactly one, so the
	// count IS the node's position in the global applied sequence — the
	// pivot the rejoin handoff in RecoverValidator resumes from.
	delivered atomic.Uint64
	// skipTo makes the restarted decode stage take-and-discard
	// transactions a just-finished recovery replay already covered
	// (position ≤ skipTo).
	skipTo atomic.Uint64
	drain  *system.Drainer
}

var _ system.System = (*Bigchain)(nil)

// NewBigchain assembles and starts the prototype.
func NewBigchain(cfg BigchainConfig) (*Bigchain, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointInterval > 0 && cfg.DataDir == "" {
		return nil, fmt.Errorf("bigchain: CheckpointInterval requires DataDir")
	}
	b := &Bigchain{
		cfg:     cfg,
		net:     cluster.NewNetwork(cfg.Link),
		box:     system.NewPayloadBox(),
		waiters: system.NewWaiters[cryptoutil.Hash](),
	}
	peers := make([]cluster.NodeID, cfg.Nodes)
	for i := range peers {
		peers[i] = cluster.NodeID(600000 + i)
	}
	for i, id := range peers {
		eng, err := openValidatorEngine(cfg.DataDir, i)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("bigchain validator %d: open state engine: %w", i, err)
		}
		n := &bigchainNode{
			b:      b,
			idx:    i,
			st:     state.New(eng, 0),
			reg:    contract.NewRegistry(contract.KV{}, contract.Smallbank{}),
			stopCh: make(chan struct{}),
		}
		if cfg.CheckpointInterval > 0 {
			n.ckpt, err = recovery.NewCheckpointer(n.st, recovery.Options{
				Dir:       validatorCkptDir(cfg.DataDir, i),
				Interval:  cfg.CheckpointInterval,
				Mode:      cfg.CheckpointMode,
				FullEvery: cfg.CheckpointFullEvery,
			})
			if err != nil {
				n.st.Close()
				b.Close()
				return nil, fmt.Errorf("bigchain validator %d: checkpointer: %w", i, err)
			}
		}
		n.pipe = pipeline.New(pipeline.Config{Workers: 1, Depth: 1},
			pipeline.Stages[consensus.Entry, *txn.Tx]{
				Decode: n.decodeEntry,
				Apply:  n.apply,
			})
		n.cons = pbft.New(pbft.Config{ID: id, Peers: peers, Endpoint: b.net.Register(id, 8192)})
		b.nodes = append(b.nodes, n)
	}
	for _, n := range b.nodes {
		n.wg.Add(1)
		go n.applyLoop()
	}
	return b, nil
}

// openValidatorEngine picks the validator's engine: the in-memory
// database by default, a disk-backed LSM under dataDir when durability
// is asked for.
func openValidatorEngine(dataDir string, i int) (storage.Engine, error) {
	if dataDir == "" {
		return memdb.New(), nil
	}
	return lsm.Open(lsm.Options{Dir: filepath.Join(dataDir, fmt.Sprintf("validator%d", i), "state")})
}

func validatorCkptDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("validator%d", i), "ckpt")
}

// Name implements system.System.
func (b *Bigchain) Name() string { return "bigchaindb-like" }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// network's transport — the chaos layer's drop/delay/reorder seam.
func (b *Bigchain) SetFaults(hook cluster.FaultHook) { b.net.SetFaults(hook) }

// Execute implements system.System as the thin Submit+Wait wrapper.
func (b *Bigchain) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(b, t)
}

// Submit implements system.System by running the blocking path on its own
// goroutine (this system has no mempool-fed path).
func (b *Bigchain) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return system.GoSubmit(func() system.Result { return b.execute(t) }), nil
}

// execute is the blocking path: the whole transaction is ordered first,
// then executed identically on every node's local database.
func (b *Bigchain) execute(t *txn.Tx) system.Result {
	live := 0
	for _, n := range b.nodes {
		if !n.crashed.Load() {
			live++
		}
	}
	if live == 0 {
		return system.Result{Err: errors.New("bigchain: no live validators")}
	}
	done := b.waiters.Register(t.ID)
	// Every validator takes exactly one copy — live decode while up,
	// take-drain while down, handoff take-and-drop during recovery — so
	// the count is constant and no copy leaks across crashes.
	id := b.box.Put(t, len(b.nodes))
	start := time.Now()
	// Any live validator accepts the proposal (PBFT forwards internally).
	// A proposal can bounce while a view change is in flight, so re-offer
	// it around the ring until one validator takes it; duplicate offers
	// are digest-deduped inside PBFT, so over-proposing is harmless.
	if err := b.propose(system.EncodeHandle(id)); err != nil {
		b.waiters.Cancel(t.ID)
		return system.Result{Err: err}
	}
	select {
	case r := <-done:
		t.Trace.Observe(metrics.PhaseConsensus, time.Since(start))
		return r
	case <-time.After(60 * time.Second):
		b.waiters.Cancel(t.ID)
		return system.Result{Err: errors.New("bigchain: commit timeout")}
	}
}

// propose offers the payload to each live validator in turn until one
// accepts it, backing off between full passes; PBFT rejects proposals
// mid-view-change, which heals within a few ticks.
func (b *Bigchain) propose(data []byte) error {
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for {
		for _, n := range b.nodes {
			if n.crashed.Load() {
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
func (n *bigchainNode) applyLoop() {
	defer n.wg.Done()
	n.pipe.Run(n.cons.Committed(), n.stopCh)
}

// decodeEntry resolves a committed entry's payload handle (pipeline
// Decode stage); view-change no-ops are skipped. Every transaction
// advances the node's delivered position, and transactions at or below
// skipTo (covered by a just-finished recovery replay) are taken — the
// box copy must be consumed — but not re-applied.
func (n *bigchainNode) decodeEntry(e consensus.Entry) (*txn.Tx, bool) {
	if len(e.Data) == 0 {
		return nil, false // view-change no-op
	}
	id, ok := system.HandleID(e.Data)
	if !ok {
		return nil, false
	}
	pos := n.delivered.Add(1)
	v, ok := n.b.box.Take(id)
	if !ok {
		return nil, false
	}
	if pos <= n.skipTo.Load() {
		return nil, false
	}
	return v.(*txn.Tx), true
}

// apply executes one ordered transaction against the local database
// (pipeline Apply stage). The marshalled transaction is retained in the
// node's applied history first, so the history a peer recovers from is
// complete even if execution aborts the transaction — replay must reach
// the same verdicts itself.
func (n *bigchainNode) apply(t *txn.Tx) {
	height := n.height.Add(1)
	n.appliedMu.Lock()
	n.applied = append(n.applied, t.Marshal())
	n.appliedMu.Unlock()
	rw, err := n.reg.Execute(n.st, t.Invocation)
	if err == nil {
		ver := txn.Version{BlockNum: height}
		vw := make([]state.VersionedWrite, len(rw.Writes))
		for i, w := range rw.Writes {
			vw[i] = state.VersionedWrite{Write: w, Version: ver}
		}
		err = n.st.ApplyBlock(vw)
	}
	r := system.Result{Committed: err == nil}
	if err != nil {
		r.Reason = occ.OK
		r.Err = err
	}
	n.b.waiters.Resolve(t.ID, r)
	if n.ckpt != nil && err == nil {
		//lint:allow errshadow failure retained in LastErr for the recovery stats
		_, _ = n.ckpt.MaybeCheckpoint(height)
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

// CrashValidator kills validator i's execution layer: the apply pipeline
// stops and its in-memory state and applied history are lost. Its PBFT
// replica keeps running behind a take-drain so the remaining 3f nodes
// never wait on its unread commit stream, every box copy is consumed,
// and the node's delivered position keeps advancing — the pivot the
// rejoin handoff in RecoverValidator resumes from.
func (b *Bigchain) CrashValidator(i int) {
	n := b.nodes[i]
	if n.crashed.Swap(true) {
		return
	}
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.wg.Wait()
	n.drain = system.NewDrainer()
	go n.drainWhileDown(n.cons.Committed(), n.drain)
	if n.ckpt != nil {
		n.ckpt.Close() // queued delta jobs die with the process, as a real crash would lose them
	}
	n.st.Close()
	n.applied = nil
}

// drainWhileDown consumes the crashed validator's commit stream: every
// transaction's box copy is taken and counted into delivered.
func (n *bigchainNode) drainWhileDown(src <-chan consensus.Entry, d *system.Drainer) {
	defer d.Finish()
	for {
		select {
		case <-d.Stop():
			return
		case e, ok := <-src:
			if !ok {
				return
			}
			if len(e.Data) == 0 {
				continue
			}
			if id, ok := system.HandleID(e.Data); ok {
				n.b.box.Take(id)
				n.delivered.Add(1)
			}
		}
	}
}

// RecoverValidator rebuilds crashed validator i from its newest on-disk
// checkpoint with height ≤ maxCkptHeight (0 = newest) plus a replay of
// healthy validator from's applied history through the node's own apply
// stage — and then REJOINS live consumption: the replay runs to at
// least the position the node's crash-time drain consumed, the
// restarted decode stage take-and-drops transactions the replay already
// covered (skipTo), and everything above flows through the ordinary
// pipeline. The network may keep committing throughout — no quiesce is
// required.
func (b *Bigchain) RecoverValidator(i, from int, maxCkptHeight uint64) (recovery.Stats, error) {
	n, src := b.nodes[i], b.nodes[from]
	if !n.crashed.Load() {
		return recovery.Stats{}, fmt.Errorf("bigchain: validator %d is not crashed", i)
	}
	if src.crashed.Load() {
		return recovery.Stats{}, fmt.Errorf("bigchain: source validator %d is crashed", from)
	}
	// Stop the crash-time drain and pin the handoff pivot: every
	// transaction at position ≤ D has had this node's box copy taken.
	if n.drain != nil {
		n.drain.Halt()
		n.drain = nil
	}
	D := n.delivered.Load()
	cfg := recovery.RebuildConfig{
		Old:           n.st, // a repeated recovery must close the previous attempt's store
		OldCkpt:       n.ckpt,
		Open:          func() (storage.Engine, error) { return openValidatorEngine(b.cfg.DataDir, i) },
		Interval:      b.cfg.CheckpointInterval,
		Mode:          b.cfg.CheckpointMode,
		FullEvery:     b.cfg.CheckpointFullEvery,
		MaxCkptHeight: maxCkptHeight,
	}
	if b.cfg.DataDir != "" {
		cfg.StateDir = filepath.Join(b.cfg.DataDir, fmt.Sprintf("validator%d", i), "state")
	}
	if n.ckpt != nil {
		cfg.CkptDir = n.ckpt.Dir()
	}
	st, ckpt, stats, err := recovery.RebuildStore(cfg)
	if err != nil {
		return stats, err
	}
	// Replay re-runs the live apply stage, which checkpoints as it goes
	// through the rebound checkpointer.
	n.ckpt = ckpt
	ckptHeight := stats.CheckpointHeight

	// Rebuild the applied-history prefix from the healthy peer, then
	// replay the tail through the live apply stage (which re-extends the
	// history itself).
	n.st = st
	n.height.Store(ckptHeight)
	n.applied = nil
	for h := uint64(1); h <= ckptHeight; h++ {
		payloads, ok := (appliedSource{src}).Payloads(h)
		if !ok {
			return stats, fmt.Errorf("bigchain: source history missing tx %d", h)
		}
		n.applied = append(n.applied, payloads[0])
	}

	// Replay the source history through the live apply stage until this
	// node has covered everything its drain consumed (≥ D). The source
	// keeps applying while we replay, so loop: each pass replays the
	// tail the source has by now, and if the source has not yet applied
	// transaction D itself, wait for it.
	replayStart := time.Now()
	deadline := time.Now().Add(30 * time.Second)
	for {
		cnt, rerr := recovery.Replay(appliedSource{src}, n.height.Load(),
			func(h uint64, payloads [][]byte) error {
				txs, err := recovery.DecodeTxs(payloads)
				if err != nil {
					return err
				}
				n.apply(txs[0]) // the live apply stage, verdicts recomputed
				return nil
			})
		stats.ReplayedBlocks += cnt
		if rerr != nil {
			stats.ReplayDuration = time.Since(replayStart)
			return stats, rerr
		}
		if cnt == 0 {
			if n.height.Load() >= D {
				break
			}
			if time.Now().After(deadline) {
				stats.ReplayDuration = time.Since(replayStart)
				return stats, fmt.Errorf("bigchain: source validator %d stuck below drained position %d", from, D)
			}
			//lint:allow sleepyloop waiting for the live replay source to apply the drained tail
			time.Sleep(time.Millisecond)
		}
	}
	stats.ReplayDuration = time.Since(replayStart)
	T1 := n.height.Load()
	stats.TipHeight = T1

	// Rejoin: transactions at positions ≤ T1 still buffered in the
	// commit stream are covered by the replay — the restarted decode
	// take-and-drops them — and everything above applies live. The
	// delivered counter keeps running from D, so buffered transactions
	// land at positions D+1..T1 and match.
	n.skipTo.Store(T1)
	n.stopCh = make(chan struct{})
	n.stopOnce = sync.Once{}
	n.crashed.Store(false)
	n.wg.Add(1)
	go n.applyLoop()
	return stats, nil
}

// Checkpointer exposes validator i's checkpointer (nil when disabled).
func (b *Bigchain) Checkpointer(i int) *recovery.Checkpointer { return b.nodes[i].ckpt }

// Height returns validator i's applied-transaction height.
func (b *Bigchain) Height(i int) uint64 { return b.nodes[i].height.Load() }

// ReadState returns the committed value of key on the first validator
// (the uniform inspection surface the shared state layer provides).
func (b *Bigchain) ReadState(key string) ([]byte, bool) {
	v, _, err := b.nodes[0].st.Get(key)
	return v, err == nil
}

// State exposes validator i's striped state store (tests and inspection).
func (b *Bigchain) State(i int) *state.Store { return b.nodes[i].st }

// Close implements system.System.
func (b *Bigchain) Close() {
	b.closeOne.Do(func() {
		for _, n := range b.nodes {
			n.stopOnce.Do(func() { close(n.stopCh) })
		}
		for _, n := range b.nodes {
			n.cons.Stop()
			n.wg.Wait()
			if n.drain != nil {
				n.drain.Halt()
				n.drain = nil
			}
			if n.ckpt != nil {
				n.ckpt.Close()
			}
			if n.st != nil {
				n.st.Close()
			}
		}
		b.net.Close()
	})
}
