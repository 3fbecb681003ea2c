package system

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/raft"
	"dichotomy/internal/recovery"
)

// windowKey is the checkpoint record a member's window is kept under.
const windowKey = ""

// GroupConfig is what a system says about one of its replicated groups —
// etcd, a TiDB region, a Spanner shard, an AHL shard or its 2PC committee;
// the lifecycle that follows from it is Group's. T is one replica's state
// machine.
type GroupConfig[T any] struct {
	// Label names the group in recovery and read errors ("tidb: region 3").
	Label string
	// Net is the transport the members register on; Peers are their node
	// ids, one replica each.
	Net   *cluster.Network
	Peers []cluster.NodeID
	// Member starts one replica's consensus node on its endpoint; rejoin
	// marks a reboot after a crash (see start). Nil means raft; AHL runs
	// PBFT.
	Member func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint, rejoin bool) Member
	// DataDir, when set, keeps the replicas' checkpoint chains, one under
	// DataDir/Name/replica-N each; Checkpoint configures them, and Dir is the
	// group's to fill in. Without a DataDir or with a zero Interval there are
	// none, and a recovery replays the whole log.
	DataDir, Name string
	Checkpoint    recovery.Options
	// New returns an empty state machine. A replica starts from one at
	// construction and again at every recovery.
	New func() *T
	// Apply applies the first copy of one request's command; e.Data is the
	// command's body, after the group's header. The outcome may depend on
	// nothing but the log prefix: every replica computes it, whichever gets
	// there first answers.
	Apply func(st *T, e consensus.Entry) Result
	// Dump emits the state machine's complete content as checkpoint
	// records; Restore puts one record back into an empty one. The empty
	// key is the group's own, so a state machine must never emit it. Only
	// a checkpoint chain and Group.Dump call them.
	Dump    func(st *T, emit func(key string, value []byte))
	Restore func(st *T, key string, value []byte) error
	// Leaderless and Timeout are the error texts Propose gives up with.
	Leaderless, Timeout string
}

// Member is one replica's consensus node as a Group drives it: the
// consensus contract, plus the member it takes for the leader.
type Member interface {
	consensus.Node
	Leader() cluster.NodeID
}

// raftMember is the Member a GroupConfig without one gets.
func raftMember(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint, rejoin bool) Member {
	return raft.New(raft.Config{ID: id, Peers: peers, Endpoint: ep, Recovering: rejoin})
}

// Group is one consensus group of replicas, each applying the committed
// log into its own copy of a state machine — the lifecycle etcd, TiDB's
// regions, Spanner's shards and AHL's shards and committee share, as
// Replica is the ledger side's.
// Commands ride inside the log entries, so the log is self-contained: a
// replica restarted with an empty log is rebuilt by the leader's ordinary
// re-replication, and one restored from its checkpoint chain skips the
// prefix the checkpoint covers. The unit of failure is one member, never
// the group: it keeps committing while a quorum remains, and a recovery
// pauses nobody.
//
// The group, not the command codec, frames requests, and every member
// applies each request once: the exactly-once primitive of
// consensus/once.go, whose Flight the embedded Replicator holds and whose
// Window each member applies through. The Replicator also holds the waiters
// the apply loops resolve; its Deadline is the one test seam.
type Group[T any] struct {
	*Replicator
	cfg         GroupConfig[T]
	reps        []*groupReplica[T]
	errNoneLive error
	// lead is the member Propose offers a command to first: the leader the
	// last member to accept one named. A follower would only forward the
	// command there, one more message.
	lead       atomic.Int32
	stopResend func() // ends the group's Resend lap
}

// groupReplica is one member: a consensus node plus the state machine its
// log applies into. cons and state are swapped atomically by crash/recover
// while reads and proposals keep flowing; mu serializes the lifecycle
// transitions themselves.
type groupReplica[T any] struct {
	id   cluster.NodeID
	ep   *cluster.Endpoint
	ckpt recovery.Options // zero Dir: no checkpoint chain

	cons    atomic.Pointer[Member]
	state   atomic.Pointer[T]
	win     atomic.Pointer[consensus.Window]
	applied atomic.Uint64 // newest applied (or restored) log index

	mu      sync.Mutex
	crashed atomic.Bool
	closed  bool // Close has been here: stopped for good. Guarded by mu.
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

// NewGroup registers the members on the network and starts them all.
func NewGroup[T any](cfg GroupConfig[T]) *Group[T] {
	if cfg.Member == nil {
		cfg.Member = raftMember
	}
	g := &Group[T]{
		Replicator:  NewReplicator(cfg.Leaderless, cfg.Timeout),
		cfg:         cfg,
		errNoneLive: errors.New(cfg.Label + " has no live replica"),
	}
	for i, id := range cfg.Peers {
		// 8192 queued messages: deep enough that a replication burst is
		// never shed at the endpoint before the protocol's own flow
		// control acts.
		rep := &groupReplica[T]{id: id, ep: cfg.Net.Register(id, 8192)}
		if cfg.DataDir != "" && cfg.Checkpoint.Interval > 0 {
			rep.ckpt = cfg.Checkpoint
			rep.ckpt.Dir = filepath.Join(cfg.DataDir, cfg.Name, fmt.Sprintf("replica-%d", i))
		}
		g.reps = append(g.reps, rep)
	}
	for _, rep := range g.reps {
		if _, _, err := g.start(rep, false); err != nil {
			// A pre-existing corrupt chain directory is the only way here;
			// run without checkpoints rather than fail — the log still fully
			// rebuilds the replica.
			rep.ckpt = recovery.Options{}
			_, _, _ = g.start(rep, false)
		}
	}
	g.stopResend = g.flight.Resend(g.offer)
	return g
}

// start boots (or re-boots) a member: restore its checkpoint chain when it
// keeps one, join the consensus group on its fixed endpoint, run the apply
// loop. rejoin distinguishes a post-crash reboot from construction: a
// rebooted raft member lost its log and must sit out elections until
// re-replication has caught it up (raft.Config.Recovering), while at
// construction every member is equally empty and someone has to campaign.
// Callers hold rep.mu or are constructing the group.
func (g *Group[T]) start(rep *groupReplica[T], rejoin bool) (restored uint64, ckptBytes int64, err error) {
	st, win := g.cfg.New(), &consensus.Window{}
	var ckpt *recovery.ChainWriter
	if rep.ckpt.Dir != "" {
		if ckpt, err = recovery.OpenChainWriter(rep.ckpt); err != nil {
			return 0, 0, err
		}
		err = ckpt.Restore(func(key string, value []byte) error {
			if key == windowKey {
				return win.Restore(value)
			}
			return g.cfg.Restore(st, key, value)
		})
		if err != nil {
			return 0, 0, err
		}
		restored, ckptBytes = ckpt.LastHeight(), ckpt.RestoredBytes()
	}
	cons := g.cfg.Member(rep.id, g.cfg.Peers, rep.ep, rejoin)
	rep.state.Store(st)
	rep.win.Store(win)
	rep.cons.Store(&cons)
	rep.applied.Store(restored)
	rep.stopCh = make(chan struct{})
	rep.wg.Add(1)
	go g.applyLoop(rep, cons, st, win, ckpt, restored, rep.stopCh)
	return restored, ckptBytes, nil
}

// member returns the member's current consensus node.
func (rep *groupReplica[T]) member() Member { return *rep.cons.Load() }

// dump emits a member's complete content in checkpoint-record form: the
// state machine's records and the window under the empty key.
func (g *Group[T]) dump(st *T, win *consensus.Window, emit func(key string, value []byte)) {
	g.cfg.Dump(st, emit)
	emit(windowKey, win.Encode())
}

// applyLoop applies the committed log into one incarnation of a member.
// Everything that incarnation owns is passed by value, so a crash/recover
// swap of the member's cons and state never races a stale loop. An entry
// too short for a header is a new leader's no-op, and one the window
// refuses is a later copy of a request already applied (or given up):
// neither reaches Apply, though both advance the applied index.
func (g *Group[T]) applyLoop(rep *groupReplica[T], cons Member, st *T, win *consensus.Window, ckpt *recovery.ChainWriter, restored uint64, stopCh chan struct{}) {
	defer rep.wg.Done()
	dump := func(emit func(key string, value []byte)) { g.dump(st, win, emit) }
	for {
		select {
		case <-stopCh:
			return
		case e, ok := <-cons.Committed():
			if !ok {
				return
			}
			if e.Index <= restored {
				continue // its effects are in the restored checkpoint already
			}
			id, first := uint64(0), false
			if len(e.Data) >= consensus.Header {
				id = binary.BigEndian.Uint64(e.Data)
				first = win.Admit(id, binary.BigEndian.Uint64(e.Data[8:]))
			}
			var res Result
			if first {
				e.Data = e.Data[consensus.Header:]
				res = g.cfg.Apply(st, e)
			}
			// Publish the applied index BEFORE resolving the waiter: reads
			// route to the live member with the highest applied index
			// (Freshest), and whichever member resolves a request is live
			// with applied ≥ its entry — so a resolved write is visible to
			// the next read without waiting for an election.
			rep.applied.Store(e.Index)
			if first {
				g.Resolve(id, res)
			}
			if ckpt != nil {
				// A failed checkpoint write only degrades durability —
				// recovery falls back to a longer log replay — so the apply
				// path keeps going.
				_ = ckpt.MaybeCheckpoint(e.Index, dump)
			}
		}
	}
}

// Propose sequences cmd through the group's log and waits for the first
// member to apply it; the Result is Apply's, or one of the two give-up
// errors. cmd's first consensus.Header bytes are the group's: the encoder
// reserves them, and Propose writes the request id and the low-water mark
// there (Replicator.Start), so framing costs no allocation. A command accepted
// and then lost — its member crashed, or was deposed, before replicating
// it — would otherwise stall the client to the deadline and leave whatever
// it was meant to release, a Percolator lock or a prepared 2PC write set,
// dangling; the group's Resend lap proposes it again one or two laps after
// acceptance, and each member's window applies only the first copy the log
// holds. A second copy is not harmless: a TiDB prewrite re-applied after
// its own rollback re-creates a lock nobody clears, and a Spanner write
// re-applied after a later one is a lost update.
func (g *Group[T]) Propose(cmd []byte) Result { return g.Start(cmd).Wait() }

// Start is Propose's first half: cmd is offered and, once a member accepted
// it, the returned Call waits for its application. Commands started on
// several groups before any is waited commit in one round, not one after
// another.
func (g *Group[T]) Start(cmd []byte) Call { return g.Replicator.Start(cmd, g.offer) }

// offer is the group's propose path, for Propose and the Resend lap alike:
// cmd goes first to the member the last accepting one named as leader, and
// on from there; any member takes it, a follower by forwarding it to its
// leader.
func (g *Group[T]) offer(cmd []byte) bool {
	lead := int(g.lead.Load())
	for i := range g.reps {
		rep := g.reps[(lead+i)%len(g.reps)]
		cons := rep.member()
		if rep.crashed.Load() || cons.Propose(cmd) != nil {
			continue
		}
		if l := slices.Index(g.cfg.Peers, cons.Leader()); l >= 0 {
			g.lead.Store(int32(l))
		}
		return true
	}
	return false
}

// Freshest returns the state machine of the live member that has applied
// the most — the one reads are served from (see applyLoop for why that
// preserves read-your-writes) — or an error naming the group when every
// member is down.
func (g *Group[T]) Freshest() (*T, error) {
	var best *groupReplica[T]
	var bestApplied uint64
	for _, rep := range g.reps {
		if rep.crashed.Load() {
			continue
		}
		if a := rep.applied.Load(); best == nil || a > bestApplied {
			best, bestApplied = rep, a
		}
	}
	if best == nil {
		return nil, g.errNoneLive
	}
	return best.state.Load(), nil
}

// Crash fail-stops member i: the network drops its traffic, its consensus
// node halts, its in-memory state machine is abandoned. Its checkpoint
// chain survives, like a process crash that keeps its disk. Crashing a
// crashed member, or a member of a closed group, does nothing.
func (g *Group[T]) Crash(i int) {
	rep := g.reps[i]
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.crashed.Load() || rep.closed {
		return
	}
	// Flip the flag first so proposals and reads stop routing here before
	// the consensus node goes down.
	rep.crashed.Store(true)
	g.cfg.Net.Crash(rep.id)
	close(rep.stopCh)
	rep.member().Stop()
	rep.wg.Wait()
}

// Recover restarts crashed member i: restore the newest intact checkpoint
// chain into a fresh state machine, rejoin the consensus group on the same
// endpoint, and let the leader re-replicate the log while the group keeps
// serving. Catch-up is asynchronous by design — the member is a full one
// again when this returns, still absorbing backfill — so the stats cover
// the restore; ReplayedBlocks and TipHeight stay zero.
func (g *Group[T]) Recover(i int) (recovery.Stats, error) {
	rep := g.reps[i]
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.crashed.Load() {
		return recovery.Stats{}, fmt.Errorf("%s replica %d is not crashed", g.cfg.Label, i)
	}
	if rep.closed {
		return recovery.Stats{}, fmt.Errorf("%s replica %d: recover: group is closed", g.cfg.Label, i)
	}
	start := time.Now()
	restored, ckptBytes, err := g.start(rep, true)
	if err != nil {
		return recovery.Stats{}, fmt.Errorf("%s replica %d: recover: %w", g.cfg.Label, i, err)
	}
	g.cfg.Net.Restart(rep.id)
	rep.crashed.Store(false)
	return recovery.Stats{
		CheckpointHeight: restored,
		CheckpointBytes:  ckptBytes,
		RestoreDuration:  time.Since(start),
	}, nil
}

// Replicas returns the member count.
func (g *Group[T]) Replicas() int { return len(g.reps) }

// Applied returns the newest log index member i has applied (or
// restored); convergence checks poll it.
func (g *Group[T]) Applied(i int) uint64 { return g.reps[i].applied.Load() }

// State returns member i's current state machine — an abandoned one while
// the member is crashed.
func (g *Group[T]) State(i int) *T { return g.reps[i].state.Load() }

// Dump returns member i's complete content in checkpoint-record form, its
// window included. Two members that have applied the same log prefix
// return byte-identical maps; the crash-equivalence tests compare exactly
// this.
func (g *Group[T]) Dump(i int) map[string][]byte {
	out := make(map[string][]byte)
	g.dump(g.State(i), g.reps[i].win.Load(), func(key string, value []byte) {
		out[key] = bytes.Clone(value)
	})
	return out
}

// Close stops the Resend lap, then every live member in two passes: every
// apply loop is told to stop before any consensus node is stopped and
// waited for, so the loops wind down side by side rather than one member
// after another. Call it before closing the network. A closed group stays
// closed: a later Crash does nothing, a later Recover restarts nothing, a
// second Close finds nothing left to stop.
func (g *Group[T]) Close() {
	g.stopResend()
	for _, rep := range g.reps {
		rep.mu.Lock()
		if !rep.crashed.Load() && !rep.closed {
			close(rep.stopCh)
		}
		rep.closed = true
		rep.mu.Unlock()
	}
	for _, rep := range g.reps {
		rep.mu.Lock()
		if !rep.crashed.Load() {
			rep.member().Stop()
			rep.wg.Wait()
		}
		rep.mu.Unlock()
	}
}
