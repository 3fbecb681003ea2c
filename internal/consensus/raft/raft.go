// Package raft implements the Raft consensus protocol over the simulated
// cluster network: randomized-timeout leader election, log replication with
// consistency checks, majority commit, and follower-to-leader proposal
// forwarding. It is the CFT protocol of the paper's taxonomy — used by
// Quorum (Raft mode), etcd, TiKV regions, and the Fabric ordering service.
//
// The implementation favours clarity over raw speed but cuts no protocol
// corners: terms, vote safety (§5.4.1 up-to-date check), the commit rule
// that only current-term entries commit by counting (§5.4.2) with the
// new-term no-op that keeps an inherited tail from waiting on it, and
// leader step-down on higher terms are all present, which the failover
// tests exercise.
//
// A consensus.Loop drives each replica: it runs the clock and the inbox,
// and it sends the entries the core commits on the commit channel holding
// no lock of the core's, so a reader that falls behind its stream stalls
// that stream alone. The core never holds n.mu across a channel operation.
package raft

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
)

// Config configures one replica. Its timers are the package's constants.
type Config struct {
	// ID is this replica's node id; it must appear in Peers.
	ID cluster.NodeID
	// Peers lists every member of the group, including ID.
	Peers []cluster.NodeID
	// Endpoint is the replica's attachment to the cluster network.
	Endpoint *cluster.Endpoint
	// Recovering marks a replica rebooted after losing its durable raft
	// state (log, term, vote) — the crash/recover lifecycle the systems
	// drive, where only the state-machine checkpoint survives. Raft's
	// safety proof assumes that state is stable: a forgetful replica
	// that votes can elect a leader missing committed entries (every
	// candidate looks up-to-date against an empty log), and one that
	// campaigns deposes the live leader with inflated terms it can never
	// back with a winning log. A recovering replica therefore rejoins as
	// a non-voting, non-campaigning follower — it accepts the leader's
	// ordinary log re-replication and resumes full membership once its
	// log covers the leader's commit index, the point at which it again
	// holds every entry the group ever committed (VR-style recovery;
	// sound under the one-replica-recovering-at-a-time lifecycle the
	// systems enforce).
	Recovering bool
}

// Timers count ticks of the loop's clock (2 ms). The effective election
// timeout is uniform in [electionTicks, 2×electionTicks).
const (
	heartbeatTicks = 3
	electionTicks  = 15
	// maxBatch bounds the entries one AppendEntries message carries.
	maxBatch = 256
)

type role int

const (
	follower role = iota
	candidate
	leader
)

type logEntry struct {
	Term uint64
	Data []byte
}

// Node is a Raft replica.
type Node struct {
	cfg Config

	mu          sync.Mutex
	role        role
	term        uint64
	votedFor    cluster.NodeID // -1 when none
	leaderID    cluster.NodeID // -1 when unknown
	log         []logEntry     // log[0] is a sentinel with Term 0
	commitIndex uint64
	applied     uint64
	nextIndex   map[cluster.NodeID]uint64
	matchIndex  map[cluster.NodeID]uint64
	votes       map[cluster.NodeID]bool
	ticksLeft   int // ticks until election (follower/candidate) or heartbeat (leader)
	recovering  bool
	rng         *rand.Rand

	loop consensus.Loop
}

var _ consensus.Node = (*Node)(nil)

// New starts a replica. The returned node runs until Stop.
func New(cfg Config) *Node {
	n := &Node{
		cfg:        cfg,
		votedFor:   -1,
		leaderID:   -1,
		recovering: cfg.Recovering,
		log:        make([]logEntry, 1),
		rng:        rand.New(rand.NewSource(int64(cfg.ID) + 1)),
	}
	n.resetElectionTimer()
	n.loop.Start(cfg.Endpoint.Inbox(), n.tick, n.handle)
	return n
}

// --- message types ---

type requestVote struct {
	Term         uint64
	LastLogIndex uint64
	LastLogTerm  uint64
}

type voteResponse struct {
	Term    uint64
	Granted bool
}

type appendEntries struct {
	Term         uint64
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []logEntry
	LeaderCommit uint64
}

type appendResponse struct {
	Term    uint64
	Success bool
	// MatchIndex is the follower's last replicated index on success; on
	// failure it hints where the leader should back up to.
	MatchIndex uint64
}

type forward struct {
	Data []byte
}

func (m requestVote) Size() int  { return 24 }
func (m voteResponse) Size() int { return 9 }
func (m appendEntries) Size() int {
	s := 32
	for _, e := range m.Entries {
		s += 8 + len(e.Data)
	}
	return s
}
func (m appendResponse) Size() int { return 17 }
func (m forward) Size() int        { return 8 + len(m.Data) }

// --- public API ---

// Propose implements consensus.Node. On a follower the proposal is
// forwarded to the last known leader; if no leader is known the proposal is
// rejected and the caller retries.
func (n *Node) Propose(data []byte) error {
	if n.loop.Stopped() {
		return consensus.ErrStopped
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == leader {
		n.appendLocal(data)
		return nil
	}
	if n.leaderID >= 0 && n.leaderID != n.cfg.ID {
		to := n.leaderID
		// Send outside the lock is unnecessary: Endpoint.Send never blocks.
		return n.cfg.Endpoint.Send(to, forward{Data: data})
	}
	return fmt.Errorf("%w: no known leader", consensus.ErrNotLeader)
}

func (n *Node) appendLocal(data []byte) {
	n.log = append(n.log, logEntry{Term: n.term, Data: data})
	n.matchIndex[n.cfg.ID] = n.lastIndex()
	// Single-node groups commit immediately.
	n.advanceCommitLocked()
}

// Committed implements consensus.Node.
func (n *Node) Committed() <-chan consensus.Entry { return n.loop.Committed() }

// IsLeader implements consensus.Node.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader
}

// Leader returns the id of the last known leader, or -1.
func (n *Node) Leader() cluster.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID
}

// Dropped returns the replica's transport drop counter — sends its
// bounded endpoint queue refused. Aggregators (the shared log's Dropped)
// report it as the consensus-side overload signal.
func (n *Node) Dropped() uint64 { return n.cfg.Endpoint.Dropped() }

// Term returns the current term; tests observe elections with it.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Recovering reports whether the replica is still in the non-voting
// rejoin phase of a post-crash recovery (see Config.Recovering).
func (n *Node) Recovering() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.recovering
}

// Stop implements consensus.Node.
func (n *Node) Stop() { n.loop.Stop() }

// --- event loop ---

func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ticksLeft--
	if n.ticksLeft > 0 {
		return
	}
	if n.role == leader {
		n.broadcastAppendLocked()
		n.ticksLeft = heartbeatTicks
		return
	}
	if n.recovering {
		// No campaigning until caught up: an election backed by a
		// rebuilt log could only disrupt the live quorum's leader.
		n.resetElectionTimer()
		return
	}
	n.startElectionLocked()
}

func (n *Node) resetElectionTimer() {
	n.ticksLeft = electionTicks + n.rng.Intn(electionTicks)
}

func (n *Node) lastIndex() uint64 { return uint64(len(n.log) - 1) }

func (n *Node) startElectionLocked() {
	n.role = candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.leaderID = -1
	n.votes = map[cluster.NodeID]bool{n.cfg.ID: true}
	n.resetElectionTimer()
	msg := requestVote{
		Term:         n.term,
		LastLogIndex: n.lastIndex(),
		LastLogTerm:  n.log[n.lastIndex()].Term,
	}
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			_ = n.cfg.Endpoint.Send(p, msg)
		}
	}
	if n.quorum(len(n.votes)) { // single-node group
		n.becomeLeaderLocked()
	}
}

func (n *Node) quorum(count int) bool { return count*2 > len(n.cfg.Peers) }

func (n *Node) becomeLeaderLocked() {
	n.role = leader
	n.leaderID = n.cfg.ID
	n.nextIndex = make(map[cluster.NodeID]uint64, len(n.cfg.Peers))
	n.matchIndex = make(map[cluster.NodeID]uint64, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = n.lastIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.cfg.ID] = n.lastIndex()
	if n.lastIndex() > n.commitIndex {
		// §5.4.2/§8: the tail above commitIndex carries older terms, which
		// advanceCommitLocked may never count replicas for — and some of it
		// may already be committed and acknowledged by the leader this one
		// replaces. An empty entry of the new term commits the whole tail
		// with it instead of leaving that to the next client proposal, which
		// may itself be waiting on the tail. Consumers skip an entry with no
		// data, as they do a PBFT view change's. An election over an empty or
		// fully committed log — every start-up — appends nothing.
		n.appendLocal(nil)
	}
	n.ticksLeft = heartbeatTicks
	n.broadcastAppendLocked()
}

func (n *Node) stepDownLocked(term uint64) {
	n.term = term
	n.role = follower
	n.votedFor = -1
	n.resetElectionTimer()
}

func (n *Node) broadcastAppendLocked() {
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.sendAppendLocked(p)
		}
	}
}

func (n *Node) sendAppendLocked(to cluster.NodeID) {
	next := n.nextIndex[to]
	if next < 1 {
		next = 1
	}
	prev := next - 1
	// The message carries the log's own entries, uncopied. Appending writes
	// only past the end of the log, and a conflict truncation copies the
	// log rather than overwriting it in place (onAppendEntries), so the
	// entries a message was sent with stay what they were; the cap keeps an
	// append through the message's slice from reaching the log's spare
	// capacity.
	end := min(uint64(len(n.log)), next+maxBatch)
	_ = n.cfg.Endpoint.Send(to, appendEntries{
		Term:         n.term,
		PrevLogIndex: prev,
		PrevLogTerm:  n.log[prev].Term,
		Entries:      n.log[next:end:end],
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) handle(env cluster.Envelope) {
	switch msg := env.Msg.(type) {
	case requestVote:
		n.onRequestVote(env.From, msg)
	case voteResponse:
		n.onVoteResponse(env.From, msg)
	case appendEntries:
		n.onAppendEntries(env.From, msg)
	case appendResponse:
		n.onAppendResponse(env.From, msg)
	case forward:
		n.onForward(msg)
	}
}

func (n *Node) onForward(msg forward) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == leader {
		n.appendLocal(msg.Data)
		return
	}
	// Re-forward once if leadership moved; drop otherwise. Propose has
	// already told the proposer the entry was accepted, so a drop is a
	// loss unless the proposer re-proposes: for system.Group, the shared
	// log and Quorum's blocks, whose Resend lap (consensus/once.go) offers
	// it again a lap or two later, it is a retry.
	if n.leaderID >= 0 && n.leaderID != n.cfg.ID {
		_ = n.cfg.Endpoint.Send(n.leaderID, msg)
	}
}

func (n *Node) onRequestVote(from cluster.NodeID, msg requestVote) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.Term > n.term {
		n.stepDownLocked(msg.Term)
	}
	grant := false
	// A recovering replica never grants votes: it may have voted in this
	// term before the crash wiped the record, and its rebuilt log makes
	// candidates missing committed entries look up-to-date.
	if msg.Term == n.term && !n.recovering && (n.votedFor == -1 || n.votedFor == from) {
		// §5.4.1: candidate's log must be at least as up-to-date.
		lastTerm := n.log[n.lastIndex()].Term
		upToDate := msg.LastLogTerm > lastTerm ||
			(msg.LastLogTerm == lastTerm && msg.LastLogIndex >= n.lastIndex())
		if upToDate {
			grant = true
			n.votedFor = from
			n.resetElectionTimer()
		}
	}
	_ = n.cfg.Endpoint.Send(from, voteResponse{Term: n.term, Granted: grant})
}

func (n *Node) onVoteResponse(from cluster.NodeID, msg voteResponse) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.Term > n.term {
		n.stepDownLocked(msg.Term)
		return
	}
	if n.role != candidate || msg.Term != n.term || !msg.Granted {
		return
	}
	n.votes[from] = true
	if n.quorum(len(n.votes)) {
		n.becomeLeaderLocked()
	}
}

func (n *Node) onAppendEntries(from cluster.NodeID, msg appendEntries) {
	n.mu.Lock()
	if msg.Term < n.term {
		term := n.term
		n.mu.Unlock()
		_ = n.cfg.Endpoint.Send(from, appendResponse{Term: term, Success: false})
		return
	}
	if msg.Term > n.term || n.role != follower {
		n.stepDownLocked(msg.Term)
	}
	n.term = msg.Term
	n.leaderID = from
	n.resetElectionTimer()

	// Consistency check on the previous entry.
	if msg.PrevLogIndex > n.lastIndex() || n.log[msg.PrevLogIndex].Term != msg.PrevLogTerm {
		hint := n.lastIndex()
		if msg.PrevLogIndex < hint {
			hint = msg.PrevLogIndex
		}
		term := n.term
		n.mu.Unlock()
		_ = n.cfg.Endpoint.Send(from, appendResponse{Term: term, Success: false, MatchIndex: hint})
		return
	}
	// Append, truncating conflicts.
	idx := msg.PrevLogIndex
	for i, e := range msg.Entries {
		idx = msg.PrevLogIndex + uint64(i) + 1
		if idx <= n.lastIndex() {
			if n.log[idx].Term != e.Term {
				// Truncate into a fresh array: AppendEntries messages this
				// node sent while it led still alias the old one.
				n.log = append(n.log[:idx:idx], e)
			}
			continue
		}
		n.log = append(n.log, e)
	}
	match := msg.PrevLogIndex + uint64(len(msg.Entries))
	if msg.LeaderCommit > n.commitIndex {
		n.commitIndex = min(msg.LeaderCommit, n.lastIndex())
	}
	if n.recovering && n.lastIndex() >= msg.LeaderCommit {
		// The log now covers everything the leader has committed, and
		// the consistency check above proved it matches the leader's —
		// this replica once again holds every committed entry, so it is
		// safe to vote and campaign.
		n.recovering = false
	}
	term := n.term
	n.applyLocked()
	n.mu.Unlock()
	_ = n.cfg.Endpoint.Send(from, appendResponse{Term: term, Success: true, MatchIndex: match})
}

func (n *Node) onAppendResponse(from cluster.NodeID, msg appendResponse) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.Term > n.term {
		n.stepDownLocked(msg.Term)
		return
	}
	if n.role != leader || msg.Term != n.term {
		return
	}
	if !msg.Success {
		// Back up; the hint is the follower's last plausible match.
		next := n.nextIndex[from]
		if msg.MatchIndex+1 < next {
			n.nextIndex[from] = msg.MatchIndex + 1
		} else if next > 1 {
			n.nextIndex[from] = next - 1
		}
		n.sendAppendLocked(from)
		return
	}
	if msg.MatchIndex > n.matchIndex[from] {
		n.matchIndex[from] = msg.MatchIndex
	}
	n.nextIndex[from] = n.matchIndex[from] + 1
	n.advanceCommitLocked()
	// Keep streaming if the follower is behind.
	if n.nextIndex[from] <= n.lastIndex() {
		n.sendAppendLocked(from)
	}
}

// advanceCommitLocked applies the §5.4.2 rule: an index commits when a
// majority has it and it belongs to the current term. The highest index a
// majority holds is the quorum'th-largest match index, so one sort of the
// match vector finds it — O(peers log peers) per call, where scanning
// down from lastIndex is O(backlog) and turns a deep replication backlog
// into quadratic work (the livelock an unbounded append burst exposed).
// Terms are nondecreasing along the log, so a single term check on that
// index is equivalent to the descending scan's current-term guard.
func (n *Node) advanceCommitLocked() {
	matches := make([]uint64, 0, 8)
	for _, p := range n.cfg.Peers {
		matches = append(matches, n.matchIndex[p])
	}
	slices.Sort(matches)
	q := len(n.cfg.Peers)/2 + 1
	idx := matches[len(matches)-q]
	if idx > n.commitIndex && n.log[idx].Term == n.term {
		n.commitIndex = idx
	}
	n.applyLocked()
}

func (n *Node) applyLocked() {
	for n.applied < n.commitIndex {
		n.applied++
		e := n.log[n.applied]
		n.loop.Deliver(consensus.Entry{Index: n.applied, Data: e.Data, Term: e.Term})
	}
}
