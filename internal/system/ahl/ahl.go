// Package ahl models Attested HyperLedger (AHL), the paper's
// state-of-the-art sharded blockchain (Dang et al., from the same group):
// data is hash-partitioned across shards, each shard is a small PBFT
// committee (trusted hardware lets AHL shrink committees to 3 nodes in the
// paper's Fig 14 setup), cross-shard transactions run 2PC whose
// coordinator is itself a BFT-replicated state machine, and shards
// periodically reconfigure to resist adaptive adversaries — pausing
// transaction processing and costing the ~30% Fig 14 measures.
package ahl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/pbft"
	"dichotomy/internal/contract"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/sharding"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/system"
	"dichotomy/internal/twopc"
	"dichotomy/internal/txn"
)

// Config assembles an AHL deployment.
type Config struct {
	// Shards is the number of data shards.
	Shards int
	// NodesPerShard is the PBFT committee size (paper: 3, thanks to TEEs;
	// our PBFT tolerates f=0 at 3 — attestation stands in for the missing
	// fault margin, as in the original system).
	NodesPerShard int
	// Reconfigure enables periodic shard reconfiguration.
	Reconfigure bool
	// ReconfigureEvery is the epoch length.
	ReconfigureEvery time.Duration
	// ReconfigurePause is the handoff stall per epoch.
	ReconfigurePause time.Duration
	// Link models the network.
	Link cluster.LinkModel
	// engineHook, when set, wraps each shard's state engine; tests
	// inject failing engines through it.
	engineHook func(storage.Engine) storage.Engine
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.NodesPerShard <= 0 {
		c.NodesPerShard = 3
	}
	if c.ReconfigureEvery <= 0 {
		c.ReconfigureEvery = 500 * time.Millisecond
	}
	if c.ReconfigurePause <= 0 {
		c.ReconfigurePause = 150 * time.Millisecond
	}
	return c
}

// Cluster is a running AHL deployment.
type Cluster struct {
	system.Blocking
	cfg    Config
	net    *cluster.Network
	shards []*shard
	part   sharding.Partitioner
	coord  *twopc.ReplicatedCoordinator
	coordN []*pbft.Node
	recfg  *sharding.Reconfigurer
	txSeq  atomic.Uint64

	closeOne sync.Once
}

var _ system.System = (*Cluster)(nil)

// shard is one PBFT committee plus its slice of the key space. Committed
// state lives in the shared striped state layer, which cross-shard
// simulation reads concurrently; the 2PC bookkeeping (prepared writes and
// prepare locks) plus the height counter are owned exclusively by the
// primary applier goroutine and need no lock.
type shard struct {
	idx   int
	nodes []*pbft.Node
	repl  *system.Replicator
	box   *system.PayloadBox

	st *state.Store
	// prepared holds writes locked by in-flight cross-shard transactions.
	prepared map[string][]txn.Write
	locks    map[string]string // key → txID holding the prepare lock
	height   uint64

	reg    *contract.Registry
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// shardCmd is the payload sequenced through a shard's PBFT group.
type shardCmd struct {
	kind    cmdKind
	txID    string
	inv     txn.Invocation
	writes  []txn.Write
	commitP bool // 2PC phase-2 verdict
}

// sequenced is a committed shard command with the request id its entry's
// header carried.
type sequenced struct {
	id  uint64
	cmd *shardCmd
}

type cmdKind int

const (
	cmdExecute cmdKind = iota // single-shard transaction
	cmdPrepare                // 2PC phase 1: lock + buffer writes
	cmdFinish                 // 2PC phase 2: commit or abort
)

// New assembles and starts an AHL cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:  cfg,
		net:  cluster.NewNetwork(cfg.Link),
		part: sharding.HashPartitioner{N: cfg.Shards},
	}
	c.Blocking = system.NewBlocking(c.execute)
	nodeIDs := make([]int, 0, cfg.Shards*cfg.NodesPerShard)
	for s := 0; s < cfg.Shards; s++ {
		var eng storage.Engine = memdb.New()
		if cfg.engineHook != nil {
			eng = cfg.engineHook(eng)
		}
		sh := &shard{
			idx:      s,
			repl:     system.NewReplicator("ahl: shard unavailable", "ahl: shard timeout"),
			box:      system.NewPayloadBox(),
			st:       state.New(eng, 0),
			prepared: make(map[string][]txn.Write),
			locks:    make(map[string]string),
			reg:      contract.NewRegistry(contract.KV{}, contract.Smallbank{}),
			stopCh:   make(chan struct{}),
		}
		peers := make([]cluster.NodeID, cfg.NodesPerShard)
		for i := range peers {
			id := cluster.NodeID(200000 + s*1000 + i)
			peers[i] = id
			nodeIDs = append(nodeIDs, int(id))
		}
		for _, id := range peers {
			sh.nodes = append(sh.nodes, pbft.New(pbft.Config{
				ID: id, Peers: peers, Endpoint: c.net.Register(id, 8192),
			}))
		}
		for _, n := range sh.nodes {
			sh.wg.Add(1)
			go sh.applyLoop(n)
		}
		c.shards = append(c.shards, sh)
	}
	// The reference committee: a separate PBFT group acting as the
	// replicated 2PC coordinator.
	coordPeers := make([]cluster.NodeID, 4)
	for i := range coordPeers {
		coordPeers[i] = cluster.NodeID(300000 + i)
	}
	for _, id := range coordPeers {
		c.coordN = append(c.coordN, pbft.New(pbft.Config{
			ID: id, Peers: coordPeers, Endpoint: c.net.Register(id, 8192),
		}))
	}
	c.coord = twopc.NewReplicatedCoordinator(c.coordN[0])
	if cfg.Reconfigure {
		c.recfg = sharding.NewReconfigurer(nodeIDs, cfg.Shards,
			cfg.ReconfigureEvery, cfg.ReconfigurePause)
	}
	return c
}

// Name implements system.System.
func (c *Cluster) Name() string {
	if c.cfg.Reconfigure {
		return "ahl-periodic"
	}
	return "ahl-fixed"
}

// applyLoop consumes one PBFT replica's commits through the shared block
// pipeline. Only the first replica's loop mutates shard state and
// resolves waiters (they all deliver the same order; mutating once stands
// in for each replica holding its own copy, and keeps the memory
// footprint of large experiments manageable); the redundant replica
// streams ride pipeline.Drain so they never backpressure the group. A
// shard's unit of work is a single sequenced command — 2PC phases
// interleave with execution, so there is no stateless stage to fan out —
// which makes this the pipeline's degenerate depth-1 instantiation.
func (sh *shard) applyLoop(n *pbft.Node) {
	defer sh.wg.Done()
	if n != sh.nodes[0] {
		pipeline.Drain(n.Committed(), sh.stopCh)
		return
	}
	pipe := pipeline.New(pipeline.Config{Workers: 1, Depth: 1},
		pipeline.Stages[consensus.Entry, sequenced]{
			Decode: sh.decodeCmd,
			Apply:  func(s sequenced) { sh.repl.Resolve(s.id, sh.apply(s.cmd)) },
		})
	pipe.Run(n.Committed(), sh.stopCh)
}

// decodeCmd resolves a committed entry's payload handle, behind the
// request header (pipeline Decode stage); view-change no-ops are skipped.
func (sh *shard) decodeCmd(e consensus.Entry) (sequenced, bool) {
	if len(e.Data) < consensus.Header {
		return sequenced{}, false // view-change no-op
	}
	handle, ok := system.HandleID(e.Data[consensus.Header:])
	if !ok {
		return sequenced{}, false
	}
	v, ok := sh.box.Take(handle)
	if !ok {
		return sequenced{}, false
	}
	return sequenced{id: binary.BigEndian.Uint64(e.Data), cmd: v.(*shardCmd)}, true
}

// apply sequences one shard command (pipeline Apply stage) and returns the
// outcome its waiter is resolved with.
func (sh *shard) apply(cmd *shardCmd) system.Result {
	sh.height++
	switch cmd.kind {
	case cmdExecute:
		rw, err := sh.reg.Execute(sh.st, cmd.inv)
		if err != nil {
			return system.Result{Err: err}
		}
		// Respect prepare locks: serial execution must not overwrite a
		// key a cross-shard transaction holds.
		for _, w := range rw.Writes {
			if _, locked := sh.locks[w.Key]; locked {
				return system.Result{Reason: occ.WriteWriteConflict}
			}
		}
		if err := sh.applyWrites(rw.Writes); err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true}
	case cmdPrepare:
		for _, w := range cmd.writes {
			if holder, locked := sh.locks[w.Key]; locked && holder != cmd.txID {
				return system.Result{Reason: occ.WriteWriteConflict}
			}
		}
		for _, w := range cmd.writes {
			sh.locks[w.Key] = cmd.txID
		}
		sh.prepared[cmd.txID] = cmd.writes
		return system.Result{Committed: true}
	default: // cmdFinish
		writes := sh.prepared[cmd.txID]
		delete(sh.prepared, cmd.txID)
		for _, w := range writes {
			if sh.locks[w.Key] == cmd.txID {
				delete(sh.locks, w.Key)
			}
		}
		if cmd.commitP {
			if err := sh.applyWrites(writes); err != nil {
				return system.Result{Err: err}
			}
		}
		return system.Result{Committed: cmd.commitP}
	}
}

// applyWrites installs a command's writes at the shard's current
// height. A store failure is returned (not panicked) so apply can
// resolve the waiting client with the error.
func (sh *shard) applyWrites(writes []txn.Write) error {
	if len(writes) == 0 {
		return nil
	}
	ver := txn.Version{BlockNum: sh.height}
	vw := make([]state.VersionedWrite, len(writes))
	for i, w := range writes {
		vw[i] = state.VersionedWrite{Write: w, Version: ver}
	}
	if err := sh.st.ApplyBlock(vw); err != nil {
		return fmt.Errorf("ahl shard %d: apply: %w", sh.idx, err)
	}
	return nil
}

// sequence pushes a command through the shard's PBFT group and waits.
// The entry is the request header, then the box handle. It is proposed
// once — the shard runs no Resend lap: re-proposal is the raft-backed
// systems' answer to a proposal lost with a crashed leader's log, and this
// path never needed it.
func (sh *shard) sequence(cmd *shardCmd) system.Result {
	handle := sh.box.Put(cmd, 1) // only the primary applier takes it
	entry := binary.BigEndian.AppendUint64(make([]byte, consensus.Header, consensus.Header+8), handle)
	r := sh.repl.Do(entry, func(entry []byte) bool {
		for _, n := range sh.nodes {
			if n.Propose(entry) == nil {
				return true
			}
		}
		return false
	})
	if sh.repl.GaveUp(r.Err) {
		// The primary applier never took the command: release it, or it
		// leaks. An apply error, by contrast, means it was taken.
		sh.box.Drop(handle)
	}
	return r
}

// execute is the blocking path.
func (c *Cluster) execute(t *txn.Tx) system.Result {
	// Reconfiguration pause: the whole system holds transactions during
	// shard handoff.
	if c.recfg != nil {
		for {
			_, paused := c.recfg.Current()
			if !paused {
				break
			}
			//lint:allow sleepyloop reconfiguration pause poll, the shard-handoff cost model
			time.Sleep(time.Millisecond)
		}
	}
	keys := invocationKeys(t.Invocation)
	shardSet := map[int]bool{}
	for _, k := range keys {
		shardSet[c.part.Shard(k)] = true
	}
	if len(shardSet) <= 1 {
		// Single-shard: sequence directly in the shard's PBFT group.
		shardIdx := 0
		for s := range shardSet {
			shardIdx = s
		}
		start := time.Now()
		r := c.shards[shardIdx].sequence(&shardCmd{kind: cmdExecute, inv: t.Invocation})
		t.Trace.Observe("consensus", time.Since(start))
		return r
	}
	return c.crossShard(t, shardSet)
}

// crossShard runs execute-at-owner + BFT-coordinated 2PC.
func (c *Cluster) crossShard(t *txn.Tx, shardSet map[int]bool) system.Result {
	// Simulate the transaction against a cross-shard read view to obtain
	// its writes. The read is not serialized with the shards' pipelines;
	// the prepare locks re-validate ownership at commit time.
	rw, err := c.simulate(t.Invocation)
	if err != nil {
		if errors.Is(err, contract.ErrAbort) {
			return system.Result{Reason: occ.OK, Err: err}
		}
		return system.Result{Err: err}
	}
	// Partition writes by shard.
	byShard := map[int][]txn.Write{}
	for _, w := range rw.Writes {
		s := c.part.Shard(w.Key)
		byShard[s] = append(byShard[s], w)
	}
	txID := fmt.Sprintf("x%d", c.txSeq.Add(1))
	parts := make([]twopc.Participant, 0, len(byShard))
	for s, writes := range byShard {
		parts = append(parts, &shardParticipant{sh: c.shards[s], writes: writes})
	}
	start := time.Now()
	err = c.coord.Run(txID, parts)
	t.Trace.Observe("2pc", time.Since(start))
	if errors.Is(err, twopc.ErrAborted) {
		return system.Result{Reason: occ.WriteWriteConflict}
	}
	if err != nil {
		return system.Result{Err: err}
	}
	return system.Result{Committed: true}
}

// simulate executes the invocation against the union of shard states.
func (c *Cluster) simulate(inv txn.Invocation) (txn.RWSet, error) {
	view := &unionState{c: c}
	reg := c.shards[0].reg
	return reg.Execute(view, inv)
}

type unionState struct{ c *Cluster }

// GetState implements contract.StateReader across shards; the striped
// stores make this safe without serializing against the shard pipelines.
func (u *unionState) GetState(key string) ([]byte, txn.Version, error) {
	return u.c.shards[u.c.part.Shard(key)].st.GetState(key)
}

// shardParticipant adapts a shard to the 2PC participant interface; each
// phase is sequenced through the shard's PBFT group.
type shardParticipant struct {
	sh     *shard
	writes []txn.Write
}

// Prepare implements twopc.Participant.
func (p *shardParticipant) Prepare(txID string) (twopc.Vote, error) {
	r := p.sh.sequence(&shardCmd{kind: cmdPrepare, txID: txID, writes: p.writes})
	if r.Err != nil {
		return twopc.VoteAbort, r.Err
	}
	if !r.Committed {
		return twopc.VoteAbort, nil
	}
	return twopc.VoteCommit, nil
}

// Commit implements twopc.Participant.
func (p *shardParticipant) Commit(txID string) error {
	r := p.sh.sequence(&shardCmd{kind: cmdFinish, txID: txID, commitP: true})
	return r.Err
}

// Abort implements twopc.Participant.
func (p *shardParticipant) Abort(txID string) error {
	r := p.sh.sequence(&shardCmd{kind: cmdFinish, txID: txID, commitP: false})
	return r.Err
}

// invocationKeys extracts the keys an invocation touches, for routing.
func invocationKeys(inv txn.Invocation) []string {
	switch inv.Contract {
	case contract.KVName:
		switch inv.Method {
		case "get", "put", "modify":
			return []string{string(inv.Args[0])}
		case "multi":
			keys := make([]string, 0, len(inv.Args)/2)
			for i := 0; i < len(inv.Args); i += 2 {
				keys = append(keys, string(inv.Args[i]))
			}
			return keys
		}
	case contract.SmallbankName:
		switch inv.Method {
		case "send_payment", "amalgamate":
			return []string{
				"sav:" + string(inv.Args[0]), "chk:" + string(inv.Args[0]),
				"sav:" + string(inv.Args[1]), "chk:" + string(inv.Args[1]),
			}
		default:
			return []string{"sav:" + string(inv.Args[0]), "chk:" + string(inv.Args[0])}
		}
	}
	return nil
}

// ReadState returns the committed value of key, routed to its owning
// shard — the uniform inspection surface the shared state layer provides.
func (c *Cluster) ReadState(key string) ([]byte, bool) {
	v, _, err := c.shards[c.part.Shard(key)].st.Get(key)
	return v, err == nil
}

// Rotations reports completed reconfigurations (0 when disabled).
func (c *Cluster) Rotations() int {
	if c.recfg == nil {
		return 0
	}
	return c.recfg.Rotations()
}

// Close implements system.System.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		c.coord.Close()
		for _, n := range c.coordN {
			n.Stop()
		}
		for _, sh := range c.shards {
			close(sh.stopCh)
		}
		for _, sh := range c.shards {
			for _, n := range sh.nodes {
				n.Stop()
			}
			sh.wg.Wait()
			sh.st.Close()
		}
		c.net.Close()
	})
}
