// Package spanner models a Spanner-like NewSQL database for the Fig 14
// sharding comparison: Raft-replicated shards (Spanner uses Paxos; both
// are majority-quorum CFT protocols), pessimistic two-phase locking with
// wound-wait deadlock avoidance, and 2PC across shards with a trusted
// coordinator.
//
// The contrast the paper draws against TiDB is concurrency-control
// temperament: Spanner's pessimistic locking makes conflicting
// transactions *wait* for locks, while TiDB aborts instantly — under a
// skewed workload the waiting depresses throughput below TiDB's (Fig 14).
package spanner

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
	"dichotomy/internal/consensus/raft"
	"dichotomy/internal/contract"
	"dichotomy/internal/occ"
	"dichotomy/internal/recovery"
	"dichotomy/internal/sharding"
	"dichotomy/internal/system"
	"dichotomy/internal/tso"
	"dichotomy/internal/twopc"
	"dichotomy/internal/txn"
)

// Config assembles a cluster.
type Config struct {
	// Shards is the number of data shards.
	Shards int
	// NodesPerShard is each shard's Raft group size (paper: 3).
	NodesPerShard int
	// Link models the network.
	Link cluster.LinkModel
	// LockWait bounds how long a transaction waits for a lock before
	// wound-wait resolves it. Default 50ms.
	LockWait time.Duration

	// DataDir, together with CheckpointInterval, enables per-shard-replica
	// checkpoint chains under DataDir/shard-NNN/replica-N.
	DataDir string
	// CheckpointInterval is applied raft entries between checkpoints; 0
	// disables checkpointing (recovery replays the whole shard log).
	CheckpointInterval uint64
	// CheckpointKeep bounds retained checkpoint files per replica.
	CheckpointKeep int
	// CheckpointMode selects full or delta shard checkpoints.
	CheckpointMode recovery.Mode
	// CheckpointFullEvery folds delta chains every N-th checkpoint.
	CheckpointFullEvery int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.NodesPerShard <= 0 {
		c.NodesPerShard = 3
	}
	if c.LockWait <= 0 {
		c.LockWait = 50 * time.Millisecond
	}
	return c
}

// Cluster is a running deployment.
type Cluster struct {
	cfg    Config
	net    *cluster.Network
	part   sharding.Partitioner
	shards []*shard
	coord  *twopc.Coordinator
	oracle *tso.Oracle
	txSeq  atomic.Uint64

	closeOne sync.Once
}

var _ system.System = (*Cluster)(nil)

// shard is a Raft-replicated partition with a lock table. The lock table
// is coordination state, held once per shard on the client-facing path —
// it is not replicated, exactly as a lock leader's in-memory lock table
// is not. Committed data and prepared 2PC writes ARE replicated: every
// replica applies the shard log into its own copy (see shardReplica), so
// any replica can be crashed and rebuilt without touching the others.
type shard struct {
	idx      int
	replicas []*shardReplica
	peers    []cluster.NodeID
	repl     *system.Replicator

	lockMu sync.Mutex
	locks  map[string]uint64 // key → lock-holder tx priority (start ts)
}

// shardState is one replica's materialized copy of the shard log:
// committed values plus the prepared-but-undecided 2PC write sets.
// Guarded by its own mutex; swapped wholesale on crash/recover.
type shardState struct {
	mu       sync.Mutex
	state    map[string][]byte
	prepared map[string][]txn.Write
}

func newShardState() *shardState {
	return &shardState{
		state:    make(map[string][]byte),
		prepared: make(map[string][]txn.Write),
	}
}

// shardReplica is one raft member plus its materialized state. Commands
// are encoded into the log entries themselves (codec.go), so a replica
// restarted with an empty log is rebuilt entirely by the leader's
// re-replication, optionally shortcut by its own checkpoint chain.
type shardReplica struct {
	id       cluster.NodeID
	ep       *cluster.Endpoint
	shard    *shard
	ckptOpts recovery.Options // zero Dir disables checkpointing

	cons    atomic.Pointer[raft.Node]
	st      atomic.Pointer[shardState]
	applied atomic.Uint64

	mu      sync.Mutex // serializes crash/recover/close transitions
	crashed atomic.Bool
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

type shardCmd struct {
	reqID  uint64
	txID   string
	phase  phase
	writes []txn.Write
	commit bool
}

type phase uint8

const (
	phaseApply phase = iota // direct single-shard write batch
	phasePrep
	phaseFinish
)

// New assembles and starts a cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:    cfg,
		net:    cluster.NewNetwork(cfg.Link),
		part:   sharding.HashPartitioner{N: cfg.Shards},
		coord:  twopc.NewCoordinator(),
		oracle: tso.New(),
	}
	for s := 0; s < cfg.Shards; s++ {
		sh := &shard{
			idx:   s,
			repl:  system.NewReplicator("spanner: shard unavailable", "spanner: apply timeout"),
			locks: make(map[string]uint64),
		}
		peers := make([]cluster.NodeID, cfg.NodesPerShard)
		for i := range peers {
			peers[i] = cluster.NodeID(400000 + s*1000 + i)
		}
		sh.peers = peers
		for i, id := range peers {
			rep := &shardReplica{id: id, ep: c.net.Register(id, 8192), shard: sh}
			if cfg.DataDir != "" && cfg.CheckpointInterval > 0 {
				rep.ckptOpts = recovery.Options{
					Dir: filepath.Join(cfg.DataDir,
						fmt.Sprintf("shard-%03d", s), fmt.Sprintf("replica-%d", i)),
					Interval:  cfg.CheckpointInterval,
					Keep:      cfg.CheckpointKeep,
					Mode:      cfg.CheckpointMode,
					FullEvery: cfg.CheckpointFullEvery,
				}
			}
			sh.replicas = append(sh.replicas, rep)
		}
		for _, rep := range sh.replicas {
			if _, _, err := rep.start(false); err != nil {
				// Only a pre-existing corrupt chain lands here; run
				// without checkpoints — the raft log still rebuilds.
				rep.ckptOpts = recovery.Options{}
				_, _, _ = rep.start(false)
			}
		}
		c.shards = append(c.shards, sh)
	}
	return c
}

// Name implements system.System.
func (c *Cluster) Name() string { return "spanner" }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// cluster's transport — the chaos layer's drop/delay/reorder seam.
func (c *Cluster) SetFaults(hook cluster.FaultHook) { c.net.SetFaults(hook) }

// start boots (or re-boots) the replica: restore its checkpoint chain
// when configured, rejoin the raft group on the fixed endpoint, run the
// apply loop. Entries at or below the restored height are skipped.
// rejoin distinguishes a post-crash reboot from initial construction: a
// rebooted replica lost its raft log and must sit out elections until
// re-replication catches it up (raft.Config.Recovering), while at
// construction every replica is equally empty and someone has to
// campaign. Callers hold rep.mu (or are constructing the cluster).
func (rep *shardReplica) start(rejoin bool) (skipTo uint64, ckptBytes int64, err error) {
	st := newShardState()
	var ckpt *recovery.ChainWriter
	if rep.ckptOpts.Dir != "" {
		w, err := recovery.OpenChainWriter(rep.ckptOpts)
		if err != nil {
			return 0, 0, err
		}
		if err := w.Restore(func(key string, value []byte, _ txn.Version) error {
			return st.restoreRecord(key, value)
		}); err != nil {
			return 0, 0, err
		}
		ckpt, skipTo, ckptBytes = w, w.LastHeight(), w.RestoredBytes()
	}
	cons := raft.New(raft.Config{ID: rep.id, Peers: rep.shard.peers, Endpoint: rep.ep, Recovering: rejoin})
	rep.st.Store(st)
	rep.cons.Store(cons)
	rep.applied.Store(skipTo)
	stopCh := make(chan struct{})
	rep.stopCh = stopCh
	rep.wg.Add(1)
	go rep.applyLoop(cons, st, ckpt, skipTo, stopCh)
	return skipTo, ckptBytes, nil
}

// applyLoop applies the shard log into this replica's state. Every
// replica applies (deterministically — same log prefix, same state) and
// every replica resolves the request waiter; resolve-once semantics make
// the duplicates no-ops.
func (rep *shardReplica) applyLoop(cons *raft.Node, st *shardState, ckpt *recovery.ChainWriter, skipTo uint64, stopCh chan struct{}) {
	defer rep.wg.Done()
	for {
		select {
		case <-stopCh:
			return
		case e, ok := <-cons.Committed():
			if !ok {
				return
			}
			if e.Index <= skipTo {
				continue // covered by the restored checkpoint
			}
			reqID, ok := rep.apply(st, e)
			// Publish the applied index BEFORE resolving the waiter:
			// readers route to the most-caught-up live replica, so a
			// resolved request is guaranteed visible to the next read.
			rep.applied.Store(e.Index)
			if ok {
				rep.shard.repl.Resolve(reqID, system.Result{Committed: true})
			}
			if ckpt != nil {
				// Checkpoint failure degrades durability only; the apply
				// path keeps going and recovery replays more log.
				_ = ckpt.MaybeCheckpoint(e.Index, st.dump)
			}
		}
	}
}

func (rep *shardReplica) apply(st *shardState, e consensus.Entry) (reqID uint64, ok bool) {
	cmd, ok := decodeShardCmd(e.Data)
	if !ok {
		return 0, false
	}
	st.mu.Lock()
	switch cmd.phase {
	case phaseApply:
		for _, w := range cmd.writes {
			if w.Value == nil {
				delete(st.state, w.Key)
			} else {
				st.state[w.Key] = w.Value
			}
		}
	case phasePrep:
		st.prepared[cmd.txID] = cmd.writes
	case phaseFinish:
		writes := st.prepared[cmd.txID]
		delete(st.prepared, cmd.txID)
		if cmd.commit {
			for _, w := range writes {
				if w.Value == nil {
					delete(st.state, w.Key)
				} else {
					st.state[w.Key] = w.Value
				}
			}
		}
	}
	st.mu.Unlock()
	return cmd.reqID, true
}

// replicate sequences a command through the shard's Raft group. The
// command rides inside the log entry, so the replicated history is
// self-contained for recovery replay.
func (sh *shard) replicate(cmd *shardCmd) error {
	cmd.reqID = sh.repl.NextID()
	payload := encodeShardCmd(cmd)
	// Re-propose until the command is applied rather than stall the
	// client 30s on a lost proposal. Duplicate application is safe: every
	// replica applies the same log, and a second apply/prepare/finish of
	// the same command is a deterministic no-op (state writes are
	// idempotent, a finished prepare is gone).
	return sh.repl.Do(cmd.reqID, true, len(sh.replicas), func(i int) bool {
		rep := sh.replicas[i]
		return !rep.crashed.Load() && rep.cons.Load().Propose(payload) == nil
	}).Err
}

// lockKeys acquires write locks with wound-wait: an older transaction
// (lower ts) waits for a younger holder to finish... in wound-wait the
// older *wounds* the younger; we approximate with bounded waiting, after
// which the requester aborts (the waiting is the throughput depressant the
// paper contrasts with TiDB's abort-fast).
func (sh *shard) lockKeys(keys []string, ts uint64, wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for {
		sh.lockMu.Lock()
		allFree := true
		for _, k := range keys {
			if _, held := sh.locks[k]; held {
				allFree = false
				break
			}
		}
		if allFree {
			for _, k := range keys {
				sh.locks[k] = ts
			}
			sh.lockMu.Unlock()
			return true
		}
		sh.lockMu.Unlock()
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond) //lint:allow sleepyloop lock-wait, the throughput tax the paper measures
	}
}

func (sh *shard) unlockKeys(keys []string) {
	sh.lockMu.Lock()
	for _, k := range keys {
		delete(sh.locks, k)
	}
	sh.lockMu.Unlock()
}

// read returns the committed value of key from the most-caught-up live
// replica. Any replica's apply resolves the request waiter, so routing
// reads to the highest applied index preserves read-your-writes: the
// resolver is live with applied ≥ the resolved entry, hence so is the
// maximum.
func (sh *shard) read(key string) ([]byte, bool) {
	rep := sh.freshestReplica()
	if rep == nil {
		return nil, false
	}
	st := rep.st.Load()
	st.mu.Lock()
	v, ok := st.state[key]
	st.mu.Unlock()
	return v, ok
}

func (sh *shard) freshestReplica() *shardReplica {
	var best *shardReplica
	var bestApplied uint64
	for _, rep := range sh.replicas {
		if rep.crashed.Load() {
			continue
		}
		if a := rep.applied.Load(); best == nil || a > bestApplied {
			best, bestApplied = rep, a
		}
	}
	return best
}

// Execute implements system.System as the thin Submit+Wait wrapper.
func (c *Cluster) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(c, t)
}

// Submit implements system.System by running the blocking path on its own
// goroutine (this system has no mempool-fed path).
func (c *Cluster) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return system.GoSubmit(func() system.Result { return c.execute(t) }), nil
}

// execute is the blocking path: lock → execute → replicate via 2PC.
func (c *Cluster) execute(t *txn.Tx) system.Result {
	rw, keys, err := c.simulate(t.Invocation)
	if err != nil {
		if errors.Is(err, contract.ErrAbort) {
			return system.Result{Reason: occ.OK, Err: err}
		}
		return system.Result{Err: err}
	}
	if len(rw.Writes) == 0 {
		return system.Result{Committed: true} // read-only
	}
	ts := c.oracle.Next()
	// Acquire write locks shard by shard (sorted shard order avoids
	// deadlock between lock phases).
	byShard := map[int][]string{}
	for _, k := range keys {
		s := c.part.Shard(k)
		byShard[s] = append(byShard[s], k)
	}
	locked := make([]int, 0, len(byShard))
	for s := 0; s < c.cfg.Shards; s++ {
		ks, ok := byShard[s]
		if !ok {
			continue
		}
		if !c.shards[s].lockKeys(ks, ts, c.cfg.LockWait) {
			for _, ls := range locked {
				c.shards[ls].unlockKeys(byShard[ls])
			}
			return system.Result{Reason: occ.WriteWriteConflict}
		}
		locked = append(locked, s)
	}
	defer func() {
		for _, ls := range locked {
			c.shards[ls].unlockKeys(byShard[ls])
		}
	}()

	// Re-execute under locks so the writes reflect locked state.
	rw, _, err = c.simulate(t.Invocation)
	if err != nil {
		if errors.Is(err, contract.ErrAbort) {
			return system.Result{Reason: occ.OK, Err: err}
		}
		return system.Result{Err: err}
	}
	writesByShard := map[int][]txn.Write{}
	for _, w := range rw.Writes {
		s := c.part.Shard(w.Key)
		writesByShard[s] = append(writesByShard[s], w)
	}
	if len(writesByShard) == 1 {
		for s, writes := range writesByShard {
			if err := c.shards[s].replicate(&shardCmd{phase: phaseApply, writes: writes}); err != nil {
				return system.Result{Err: err}
			}
		}
		return system.Result{Committed: true}
	}
	// Cross-shard 2PC with the trusted coordinator.
	txID := fmt.Sprintf("sp%d", c.txSeq.Add(1))
	parts := make([]twopc.Participant, 0, len(writesByShard))
	for s, writes := range writesByShard {
		parts = append(parts, &participant{sh: c.shards[s], writes: writes})
	}
	if err := c.coord.Run(txID, parts); err != nil {
		if errors.Is(err, twopc.ErrAborted) {
			return system.Result{Reason: occ.WriteWriteConflict}
		}
		return system.Result{Err: err}
	}
	return system.Result{Committed: true}
}

type participant struct {
	sh     *shard
	writes []txn.Write
}

// Prepare implements twopc.Participant.
func (p *participant) Prepare(txID string) (twopc.Vote, error) {
	if err := p.sh.replicate(&shardCmd{phase: phasePrep, txID: txID, writes: p.writes}); err != nil {
		return twopc.VoteAbort, err
	}
	return twopc.VoteCommit, nil
}

// Commit implements twopc.Participant.
func (p *participant) Commit(txID string) error {
	return p.sh.replicate(&shardCmd{phase: phaseFinish, txID: txID, commit: true})
}

// Abort implements twopc.Participant.
func (p *participant) Abort(txID string) error {
	return p.sh.replicate(&shardCmd{phase: phaseFinish, txID: txID, commit: false})
}

// ReadState returns the committed value of key, routed to its owning
// shard (tests and inspection).
func (c *Cluster) ReadState(key string) ([]byte, bool) {
	return c.shards[c.part.Shard(key)].read(key)
}

// simulate runs the contract against cross-shard committed state and also
// returns the full set of touched keys (reads ∪ writes) for locking.
func (c *Cluster) simulate(inv txn.Invocation) (txn.RWSet, []string, error) {
	reg := contract.NewRegistry(contract.KV{}, contract.Smallbank{})
	rw, err := reg.Execute(&clusterState{c: c}, inv)
	if err != nil {
		return txn.RWSet{}, nil, err
	}
	keySet := map[string]bool{}
	for _, w := range rw.Writes {
		keySet[w.Key] = true
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	return rw, keys, nil
}

type clusterState struct{ c *Cluster }

// GetState implements contract.StateReader.
func (s *clusterState) GetState(key string) ([]byte, txn.Version, error) {
	v, ok := s.c.shards[s.c.part.Shard(key)].read(key)
	if !ok {
		return nil, txn.Version{}, contract.ErrNotFound
	}
	return v, txn.Version{}, nil
}

// Close implements system.System.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		for _, sh := range c.shards {
			for _, rep := range sh.replicas {
				rep.mu.Lock()
				if !rep.crashed.Load() {
					close(rep.stopCh)
				}
				rep.mu.Unlock()
			}
			for _, rep := range sh.replicas {
				rep.mu.Lock()
				if !rep.crashed.Load() {
					rep.cons.Load().Stop()
					rep.wg.Wait()
				}
				rep.mu.Unlock()
			}
		}
		c.net.Close()
	})
}
