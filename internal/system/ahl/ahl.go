// Package ahl models Attested HyperLedger (AHL), the paper's
// state-of-the-art sharded blockchain (Dang et al., from the same group):
// data is hash-partitioned across shards, each shard is a small PBFT
// committee (trusted hardware lets AHL shrink committees to 3 nodes in the
// paper's Fig 14 setup), cross-shard transactions run 2PC whose
// coordinator is itself a BFT-replicated state machine, and shards
// periodically reconfigure to resist adaptive adversaries — pausing
// transaction processing and costing the ~30% Fig 14 measures.
//
// How a replica boots, applies its log and shuts down is not AHL's: each
// shard is one system.Group over its PBFT committee, in which every member
// applies the sequenced commands into its own copy of the shard (store,
// prepare locks, prepared writes, height), and the 2PC reference committee
// is a four-member Group whose Apply returns the sequenced decision. A
// command rides encoded in its entry (codec.go).
package ahl

import (
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
	// engineHook, when set, wraps each shard member's state engine; tests
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
	cfg       Config
	net       *cluster.Network
	shards    []*system.Group[shard]
	part      sharding.Partitioner
	committee *system.Group[struct{}]
	coord     *twopc.Coordinator
	recfg     *sharding.Reconfigurer
	txSeq     atomic.Uint64

	closeOne sync.Once
}

var _ system.System = (*Cluster)(nil)

// registry holds the contracts every shard runs; Execute only reads it.
var registry = contract.NewRegistry(contract.KV{}, contract.Smallbank{})

// shard is one member's copy of a shard: the committed store plus the 2PC
// bookkeeping (prepared writes and prepare locks) and the height counter.
// The member's apply loop owns all of it; cross-shard simulation and
// ReadState read the store concurrently, which the striped state layer
// allows.
type shard struct {
	idx   int
	store *state.Store
	// prepared holds writes locked by in-flight cross-shard transactions.
	prepared map[string][]txn.Write
	locks    map[string]string // key → txID holding the prepare lock
	height   uint64
}

// shardCmd is the command sequenced through a shard's PBFT group.
type shardCmd struct {
	kind    cmdKind
	txID    string
	inv     txn.Invocation
	writes  []txn.Write
	commitP bool // 2PC phase-2 verdict
}

type cmdKind uint8

const (
	cmdExecute cmdKind = iota // single-shard transaction
	cmdPrepare                // 2PC phase 1: lock + buffer writes
	cmdFinish                 // 2PC phase 2: commit or abort
)

// pbftMember is the consensus member of every AHL group.
func pbftMember(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint, _ bool) system.Member {
	return pbft.New(pbft.Config{ID: id, Peers: peers, Endpoint: ep})
}

// New assembles and starts an AHL cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:  cfg,
		net:  cluster.NewNetwork(cluster.ZeroLink{}),
		part: sharding.HashPartitioner{N: cfg.Shards},
	}
	c.Blocking = system.NewBlocking(c.execute)
	nodeIDs := make([]int, 0, cfg.Shards*cfg.NodesPerShard)
	for s := 0; s < cfg.Shards; s++ {
		peers := make([]cluster.NodeID, cfg.NodesPerShard)
		for i := range peers {
			peers[i] = cluster.NodeID(200000 + s*1000 + i)
			nodeIDs = append(nodeIDs, int(peers[i]))
		}
		c.shards = append(c.shards, system.NewGroup(system.GroupConfig[shard]{
			Label:  fmt.Sprintf("ahl: shard %d", s),
			Net:    c.net,
			Peers:  peers,
			Member: pbftMember,
			New: func() *shard {
				var eng storage.Engine = memdb.New()
				if cfg.engineHook != nil {
					eng = cfg.engineHook(eng)
				}
				return &shard{
					idx:      s,
					store:    state.New(eng, 0),
					prepared: make(map[string][]txn.Write),
					locks:    make(map[string]string),
				}
			},
			Apply:      applyShardCmd,
			Leaderless: "ahl: shard unavailable",
			Timeout:    "ahl: shard timeout",
		}))
	}
	// The reference committee: a separate PBFT group acting as the
	// replicated 2PC coordinator.
	coordPeers := make([]cluster.NodeID, 4)
	for i := range coordPeers {
		coordPeers[i] = cluster.NodeID(300000 + i)
	}
	c.committee = system.NewGroup(system.GroupConfig[struct{}]{
		Label:      "ahl: 2pc committee",
		Net:        c.net,
		Peers:      coordPeers,
		Member:     pbftMember,
		New:        func() *struct{} { return &struct{}{} },
		Apply:      applyDecision,
		Leaderless: "ahl: 2pc committee unavailable",
		Timeout:    "ahl: 2pc committee timeout",
	})
	c.coord = twopc.NewBFTCoordinator(c.sequenceDecision)
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

// applyShardCmd is a shard group's Apply: one sequenced command into one
// member's copy of the shard. A shard's unit of work is a single command —
// 2PC phases interleave with execution, so there is no stateless stage to
// fan out.
func applyShardCmd(sh *shard, e consensus.Entry) system.Result {
	cmd, ok := decodeShardCmd(e.Data)
	if !ok {
		return system.Result{Err: fmt.Errorf("ahl shard %d: undecodable command", sh.idx)}
	}
	return sh.apply(&cmd)
}

// apply sequences one shard command and returns the outcome its waiter is
// resolved with.
func (sh *shard) apply(cmd *shardCmd) system.Result {
	sh.height++
	switch cmd.kind {
	case cmdExecute:
		rw, err := registry.Execute(sh.store, cmd.inv)
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
	if err := sh.store.ApplyBlock(vw); err != nil {
		return fmt.Errorf("ahl shard %d: apply: %w", sh.idx, err)
	}
	return nil
}

// applyDecision is the committee's Apply: the 2PC decision the entry
// carries (decision u8 | txID), as sequenced.
func applyDecision(_ *struct{}, e consensus.Entry) system.Result {
	return system.Result{Committed: len(e.Data) > 0 && twopc.Decision(e.Data[0]) == twopc.DecisionCommit}
}

// sequenceDecision records txID's 2PC decision by sequencing it through the
// committee.
func (c *Cluster) sequenceDecision(txID string, d twopc.Decision) (twopc.Decision, error) {
	cmd := append(make([]byte, consensus.Header, consensus.Header+1+len(txID)), byte(d))
	if r := c.committee.Propose(append(cmd, txID...)); !r.Committed {
		return twopc.DecisionAbort, r.Err
	}
	return twopc.DecisionCommit, nil
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
		r := c.shards[shardIdx].Propose(encodeShardCmd(&shardCmd{kind: cmdExecute, inv: t.Invocation}))
		t.Trace.Observe("consensus", time.Since(start))
		return r
	}
	return c.crossShard(t, shardSet)
}

// crossShard runs execute-at-owner + BFT-coordinated 2PC.
func (c *Cluster) crossShard(t *txn.Tx, shardSet map[int]bool) system.Result {
	// Simulate the transaction against a cross-shard read view to obtain
	// its writes. The read is not serialized with the shards' apply loops;
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
	return registry.Execute(view, inv)
}

type unionState struct{ c *Cluster }

// GetState implements contract.StateReader across shards, each read from
// the shard's freshest member; the striped stores make this safe without
// serializing against the members' apply loops.
func (u *unionState) GetState(key string) ([]byte, txn.Version, error) {
	sh, err := u.c.shards[u.c.part.Shard(key)].Freshest()
	if err != nil {
		return nil, txn.Version{}, err
	}
	return sh.store.GetState(key)
}

// shardParticipant adapts a shard to the 2PC participant interface; each
// phase is sequenced through the shard's PBFT group.
type shardParticipant struct {
	sh     *system.Group[shard]
	writes []txn.Write
}

// Prepare implements twopc.Participant.
func (p *shardParticipant) Prepare(txID string) (twopc.Vote, error) {
	r := p.sh.Propose(encodeShardCmd(&shardCmd{kind: cmdPrepare, txID: txID, writes: p.writes}))
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
	r := p.sh.Propose(encodeShardCmd(&shardCmd{kind: cmdFinish, txID: txID, commitP: true}))
	return r.Err
}

// Abort implements twopc.Participant.
func (p *shardParticipant) Abort(txID string) error {
	r := p.sh.Propose(encodeShardCmd(&shardCmd{kind: cmdFinish, txID: txID, commitP: false}))
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

// ReadState returns the committed value of key, read from its owning
// shard's freshest member — the uniform inspection surface the shared
// state layer provides.
func (c *Cluster) ReadState(key string) ([]byte, bool) {
	sh, err := c.shards[c.part.Shard(key)].Freshest()
	if err != nil {
		return nil, false
	}
	v, _, err := sh.store.Get(key)
	return v, err == nil
}

// Rotations reports completed reconfigurations (0 when disabled).
func (c *Cluster) Rotations() int {
	if c.recfg == nil {
		return 0
	}
	return c.recfg.Rotations()
}

// Close implements system.System: it stops the committee and every shard
// group — their apply loops and Resend laps — then closes each member's
// store. The reconfigurer runs no goroutine of its own.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		c.committee.Close()
		for _, g := range c.shards {
			g.Close()
		}
		for _, g := range c.shards {
			for i := 0; i < g.Replicas(); i++ {
				g.State(i).store.Close()
			}
		}
		c.net.Close()
	})
}
