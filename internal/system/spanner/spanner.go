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
//
// How one replica of one shard boots, applies its log, checkpoints, dies
// and comes back is not Spanner's: each shard's data is a system.Group over
// a shardState. This package supplies the command set the log carries
// (codec.go), its application, and everything above — the lock table,
// wound-wait and the 2PC participants.
package spanner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
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

	// DataDir, together with CheckpointInterval, enables per-shard-replica
	// checkpoint chains under DataDir/shard-NNN/replica-N.
	DataDir string
	// CheckpointInterval is applied raft entries between checkpoints; 0
	// disables checkpointing (recovery replays the whole shard log).
	CheckpointInterval uint64
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
	return c
}

// Cluster is a running deployment.
type Cluster struct {
	system.Blocking
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

// registry holds the contracts every transaction runs, KV and Smallbank;
// Execute only reads it.
var registry = contract.NewRegistry(contract.KV{}, contract.Smallbank{})

// shard is a Raft-replicated partition with a lock table. The lock table
// is coordination state, held once per shard on the client-facing path —
// it is not replicated, exactly as a lock leader's in-memory lock table
// is not. Committed data and prepared 2PC writes ARE replicated: every
// replica of the embedded group applies the shard log into its own
// shardState, so any replica can be crashed and rebuilt without touching
// the others — or the locks.
type shard struct {
	*system.Group[shardState]

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

type shardCmd struct {
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
		net:    cluster.NewNetwork(cluster.ZeroLink{}),
		part:   sharding.HashPartitioner{N: cfg.Shards},
		coord:  twopc.NewCoordinator(),
		oracle: tso.New(),
	}
	c.Blocking = system.NewBlocking(c.execute)
	ckpt := recovery.Options{
		Interval:  cfg.CheckpointInterval,
		Mode:      cfg.CheckpointMode,
		FullEvery: cfg.CheckpointFullEvery,
	}
	for s := 0; s < cfg.Shards; s++ {
		peers := make([]cluster.NodeID, cfg.NodesPerShard)
		for i := range peers {
			peers[i] = cluster.NodeID(400000 + s*1000 + i)
		}
		c.shards = append(c.shards, &shard{
			Group: system.NewGroup(system.GroupConfig[shardState]{
				Label:      fmt.Sprintf("spanner: shard %d", s),
				Net:        c.net,
				Peers:      peers,
				DataDir:    cfg.DataDir,
				Name:       fmt.Sprintf("shard-%03d", s),
				Checkpoint: ckpt,
				New:        newShardState,
				Apply:      applyShardCmd,
				Dump:       (*shardState).dump,
				Restore:    (*shardState).restoreRecord,
				Leaderless: "spanner: shard unavailable",
				Timeout:    "spanner: apply timeout",
			}),
			locks: make(map[string]uint64),
		})
	}
	return c
}

// Name implements system.System.
func (c *Cluster) Name() string { return "spanner" }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// cluster's transport — the chaos layer's drop/delay/reorder seam.
func (c *Cluster) SetFaults(hook cluster.FaultHook) { c.net.SetFaults(hook) }

// applyShardCmd is the shard group's Apply: one committed command into
// one replica's state. A body that does not decode applies nothing.
func applyShardCmd(st *shardState, e consensus.Entry) system.Result {
	cmd, ok := decodeShardCmd(e.Data)
	if !ok {
		return system.Result{Err: errors.New("spanner: undecodable shard command")}
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
	return system.Result{Committed: true}
}

// replicate sequences a command through the shard's Raft group and waits
// until a replica has applied it (system.Group.Propose: exactly once).
// The command rides inside the log entry, so the replicated history is
// self-contained for recovery replay.
func (sh *shard) replicate(cmd *shardCmd) error {
	return sh.Propose(encodeShardCmd(cmd)).Err
}

// lockWait bounds how long a transaction waits for a lock before
// wound-wait resolves it.
const lockWait = 50 * time.Millisecond

// lockKeys acquires write locks with wound-wait: an older transaction
// (lower ts) waits for a younger holder to finish... in wound-wait the
// older *wounds* the younger; we approximate with bounded waiting
// (lockWait), after which the requester aborts (the waiting is the
// throughput depressant the paper contrasts with TiDB's abort-fast).
func (sh *shard) lockKeys(keys []string, ts uint64) bool {
	deadline := time.Now().Add(lockWait)
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

// read returns the committed value of key from the shard's freshest live
// replica, or the error naming the shard when none is live.
func (sh *shard) read(key string) ([]byte, bool, error) {
	st, err := sh.Freshest()
	if err != nil {
		return nil, false, err
	}
	st.mu.Lock()
	v, ok := st.state[key]
	st.mu.Unlock()
	return v, ok, nil
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
		if !c.shards[s].lockKeys(ks, ts) {
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
// shard (tests and inspection); a shard with no live replica has none.
func (c *Cluster) ReadState(key string) ([]byte, bool) {
	v, ok, _ := c.shards[c.part.Shard(key)].read(key)
	return v, ok
}

// simulate runs the contract against cross-shard committed state and also
// returns the full set of touched keys (reads ∪ writes) for locking.
func (c *Cluster) simulate(inv txn.Invocation) (txn.RWSet, []string, error) {
	rw, err := registry.Execute(&clusterState{c: c}, inv)
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
	v, ok, err := s.c.shards[s.c.part.Shard(key)].read(key)
	if err == nil && !ok {
		err = contract.ErrNotFound
	}
	return v, txn.Version{}, err
}

// Close implements system.System.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		for _, sh := range c.shards {
			sh.Close()
		}
		c.net.Close()
	})
}
