// Package ibft implements Istanbul BFT, the Byzantine consensus protocol
// Quorum ships alongside Raft. IBFT shares the three-phase crux of PBFT
// (pre-prepare, prepare with 2f+1, commit with 2f+1 out of n = 3f+1) but is
// restructured for blockchains, exactly as the paper describes: consensus
// runs height by height — one instance at a time, sequenced with the ledger
// — the proposer rotates round-robin across validators, consensus metadata
// is embedded in the delivered entry rather than kept in checkpoints, and a
// round change (not a PBFT view change) replaces a stalled proposer.
//
// The height-sequential structure is what makes Quorum's block proposal
// rate hostage to the ledger's sequentiality (Section 5.2.2); the larger
// quorums (2f+1 of 3f+1 vs Raft's f+1 of 2f+1) produce the throughput
// variance at scale that Fig 7 reports.
//
// A consensus.Loop drives each validator and sends what it decides on the
// commit channel holding no lock of the validator's, so a reader that
// falls behind its stream stalls that stream alone.
package ibft

import (
	"slices"
	"sync"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/cryptoutil"
)

// Config configures one validator. Its timer is the package's constant.
type Config struct {
	ID       cluster.NodeID
	Peers    []cluster.NodeID // validator set, including ID; len = 3f+1
	Endpoint *cluster.Endpoint
}

// roundChangeTicks is how many ticks of the loop's clock (2 ms) a height
// may stall before the validators move to the next round and proposer.
const roundChangeTicks = 50

// F returns the number of Byzantine faults tolerated by n validators.
func F(n int) int { return (n - 1) / 3 }

// Node is an IBFT validator.
type Node struct {
	cfg Config
	f   int

	mu       sync.Mutex
	height   uint64 // current consensus instance (1-based; delivered = height-1)
	round    uint64
	locked   bool // proposal accepted in this height (pre-prepared)
	digest   cryptoutil.Hash
	data     []byte
	prepares map[cluster.NodeID]bool
	commits  map[cluster.NodeID]bool
	// roundChangeVotes[r] holds validators asking for round r of the
	// current height.
	roundChangeVotes map[uint64]map[cluster.NodeID]bool
	queue            [][]byte // local payloads waiting to be proposed
	stallTicks       int
	// ahead holds, in arrival order, the messages of heights this
	// validator has not reached yet, up to aheadHeights past its own;
	// aheadFrom counts each sender's share, which aheadPerSender bounds.
	// A faster validator's pre-prepare and prepares for h+1 routinely
	// arrive before h's last commits; reaching h+1, this one replays them.
	ahead     []cluster.Envelope
	aheadFrom map[cluster.NodeID]int
	// decided holds the digests of the last len(decided) heights, slot
	// height mod len. Propose gossips a payload to every validator while
	// the proposer may already be deciding it, so a copy can arrive after
	// its height; queued, it would be decided a second time.
	decided [64]cryptoutil.Hash

	loop consensus.Loop
}

var _ consensus.Node = (*Node)(nil)

// New starts a validator.
func New(cfg Config) *Node {
	n := &Node{
		cfg:              cfg,
		f:                F(len(cfg.Peers)),
		height:           1,
		prepares:         make(map[cluster.NodeID]bool),
		commits:          make(map[cluster.NodeID]bool),
		roundChangeVotes: make(map[uint64]map[cluster.NodeID]bool),
		aheadFrom:        make(map[cluster.NodeID]int),
		stallTicks:       roundChangeTicks,
	}
	n.loop.Start(cfg.Endpoint.Inbox(), n.tick, n.handle)
	return n
}

// proposerOf rotates the proposer by height and round, IBFT's round-robin
// policy.
func (n *Node) proposerOf(height, round uint64) cluster.NodeID {
	return n.cfg.Peers[int(height+round)%len(n.cfg.Peers)]
}

func (n *Node) quorum() int { return 2*n.f + 1 }

// A validator keeps the messages of the next aheadHeights heights, at most
// aheadPerSender from one sender: a height's pre-prepare, prepare and
// commit, and room for round changes, for each of those heights.
const aheadHeights, aheadPerSender = 4, 8 * 4

// --- messages ---

type forward struct{ Data []byte }

type preprepare struct {
	Height uint64
	Round  uint64
	Digest cryptoutil.Hash
	Data   []byte
}

type prepare struct {
	Height uint64
	Round  uint64
	Digest cryptoutil.Hash
}

type commitMsg struct {
	Height uint64
	Round  uint64
	Digest cryptoutil.Hash
}

type roundChange struct {
	Height uint64
	Round  uint64
}

func (m forward) Size() int     { return 8 + len(m.Data) }
func (m preprepare) Size() int  { return 48 + len(m.Data) }
func (m prepare) Size() int     { return 48 }
func (m commitMsg) Size() int   { return 48 }
func (m roundChange) Size() int { return 16 }

// height is the consensus instance a message belongs to.
func (m preprepare) height() uint64  { return m.Height }
func (m prepare) height() uint64     { return m.Height }
func (m commitMsg) height() uint64   { return m.Height }
func (m roundChange) height() uint64 { return m.Height }

// --- public API ---

// Propose implements consensus.Node. The payload queues locally; it is
// proposed when this validator becomes the proposer, or forwarded to the
// current proposer otherwise.
func (n *Node) Propose(data []byte) error {
	if n.loop.Stopped() {
		return consensus.ErrStopped
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Gossip the payload to every validator: all queues hold it, so every
	// round-change timer arms if the current proposer dies, and whichever
	// validator proposes next has the payload at hand. Delivery removes
	// the queued copy by digest on all validators.
	n.broadcast(forward{Data: data})
	n.queue = append(n.queue, data)
	n.maybeProposeLocked()
	return nil
}

// maybeProposeLocked starts the current height's agreement if this
// validator is the proposer, no proposal is in flight, and work is queued.
func (n *Node) maybeProposeLocked() {
	if n.locked || len(n.queue) == 0 || n.proposerOf(n.height, n.round) != n.cfg.ID {
		return
	}
	data := n.queue[0]
	n.queue = n.queue[1:]
	n.acceptProposalLocked(n.round, cryptoutil.HashBytes(data), data)
	n.broadcast(preprepare{Height: n.height, Round: n.round, Digest: n.digest, Data: data})
}

func (n *Node) acceptProposalLocked(round uint64, digest cryptoutil.Hash, data []byte) {
	n.locked = true
	n.round = round
	n.digest = digest
	n.data = data
	n.prepares[n.cfg.ID] = true
	n.stallTicks = roundChangeTicks
}

// Committed implements consensus.Node.
func (n *Node) Committed() <-chan consensus.Entry { return n.loop.Committed() }

// IsLeader reports whether this validator proposes the current height.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.proposerOf(n.height, n.round) == n.cfg.ID
}

// Height returns the current consensus height (delivered + 1).
func (n *Node) Height() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.height
}

// Round returns the current round within the height.
func (n *Node) Round() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.round
}

// Stop implements consensus.Node.
func (n *Node) Stop() { n.loop.Stop() }

func (n *Node) broadcast(msg cluster.Message) {
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			_ = n.cfg.Endpoint.Send(p, msg)
		}
	}
}

// --- event loop ---

func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	// The round-change timer runs only while this height has work: a
	// locked proposal, or queued payloads waiting on a dead proposer.
	if !n.locked && len(n.queue) == 0 {
		n.stallTicks = roundChangeTicks
		return
	}
	n.stallTicks--
	if n.stallTicks > 0 {
		return
	}
	n.voteRoundChangeLocked(n.round + 1)
}

func (n *Node) voteRoundChangeLocked(newRound uint64) {
	n.stallTicks = roundChangeTicks
	votes := n.roundChangeVotes[newRound]
	if votes == nil {
		votes = make(map[cluster.NodeID]bool)
		n.roundChangeVotes[newRound] = votes
	}
	votes[n.cfg.ID] = true
	n.broadcast(roundChange{Height: n.height, Round: newRound})
	n.maybeChangeRoundLocked(newRound)
}

func (n *Node) handle(env cluster.Envelope) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stepLocked(env)
}

// stepLocked handles one message, holding back one for a later height.
func (n *Node) stepLocked(env cluster.Envelope) {
	if m, ok := env.Msg.(interface{ height() uint64 }); ok && m.height() > n.height {
		if m.height() <= n.height+aheadHeights && n.aheadFrom[env.From] < aheadPerSender {
			n.aheadFrom[env.From]++
			n.ahead = append(n.ahead, env)
		}
		return // further ahead, or its sender's share is full: dropped
	}
	switch msg := env.Msg.(type) {
	case forward:
		if slices.Contains(n.decided[:], cryptoutil.HashBytes(msg.Data)) {
			return // a late copy of a decided payload
		}
		n.queue = append(n.queue, msg.Data)
		n.maybeProposeLocked()
	case preprepare:
		n.onPrePrepareLocked(env.From, msg)
	case prepare:
		n.onPrepareLocked(env.From, msg)
	case commitMsg:
		n.onCommitLocked(env.From, msg)
	case roundChange:
		n.onRoundChangeLocked(env.From, msg)
	}
}

func (n *Node) onPrePrepareLocked(from cluster.NodeID, msg preprepare) {
	if msg.Height != n.height || msg.Round < n.round {
		return
	}
	if from != n.proposerOf(msg.Height, msg.Round) {
		return // not the legitimate proposer for that round
	}
	if cryptoutil.HashBytes(msg.Data) != msg.Digest {
		return
	}
	if n.locked && n.round == msg.Round && n.digest != msg.Digest {
		return // conflicting proposal in the same round
	}
	if msg.Round > n.round {
		// The proposer of a later round is ahead of us; join its round.
		n.enterRoundLocked(msg.Round)
	}
	n.acceptProposalLocked(msg.Round, msg.Digest, msg.Data)
	n.prepares[from] = true
	n.broadcast(prepare{Height: n.height, Round: n.round, Digest: n.digest})
	n.maybeAdvanceLocked()
}

func (n *Node) onPrepareLocked(from cluster.NodeID, msg prepare) {
	if msg.Height != n.height || msg.Round != n.round {
		return
	}
	if n.locked && n.digest != msg.Digest {
		return
	}
	n.prepares[from] = true
	n.maybeAdvanceLocked()
}

func (n *Node) onCommitLocked(from cluster.NodeID, msg commitMsg) {
	if msg.Height != n.height {
		return
	}
	if n.locked && n.digest != msg.Digest {
		return
	}
	n.commits[from] = true
	n.maybeAdvanceLocked()
}

func (n *Node) maybeAdvanceLocked() {
	if !n.locked {
		return
	}
	if len(n.prepares) >= n.quorum() && !n.commits[n.cfg.ID] {
		n.commits[n.cfg.ID] = true
		n.broadcast(commitMsg{Height: n.height, Round: n.round, Digest: n.digest})
	}
	if len(n.commits) >= n.quorum() {
		// Height decided: deliver with embedded metadata and move on.
		n.loop.Deliver(consensus.Entry{Index: n.height, Data: n.data, Term: n.round})
		// Drop the local copy of the decided payload, if queued here.
		decided := n.digest
		n.decided[n.height%uint64(len(n.decided))] = decided
		for i, q := range n.queue {
			if cryptoutil.HashBytes(q) == decided {
				n.queue = append(n.queue[:i], n.queue[i+1:]...)
				break
			}
		}
		n.height++
		n.round = 0
		n.locked = false
		n.data = nil
		n.digest = cryptoutil.Hash{}
		n.prepares = make(map[cluster.NodeID]bool)
		n.commits = make(map[cluster.NodeID]bool)
		n.roundChangeVotes = make(map[uint64]map[cluster.NodeID]bool)
		n.stallTicks = roundChangeTicks
		n.maybeProposeLocked()
		// Replay what arrived early: this height's messages apply now, and
		// later heights' are held again.
		held := n.ahead
		n.ahead = nil
		clear(n.aheadFrom)
		for _, env := range held {
			n.stepLocked(env)
		}
	}
}

func (n *Node) onRoundChangeLocked(from cluster.NodeID, msg roundChange) {
	if msg.Height != n.height || msg.Round <= n.round {
		return
	}
	votes := n.roundChangeVotes[msg.Round]
	if votes == nil {
		votes = make(map[cluster.NodeID]bool)
		n.roundChangeVotes[msg.Round] = votes
	}
	votes[from] = true
	// f+1 demands prove an honest validator timed out: join early.
	if len(votes) > n.f && !votes[n.cfg.ID] {
		votes[n.cfg.ID] = true
		n.broadcast(roundChange{Height: n.height, Round: msg.Round})
	}
	n.maybeChangeRoundLocked(msg.Round)
}

func (n *Node) maybeChangeRoundLocked(newRound uint64) {
	votes := n.roundChangeVotes[newRound]
	if len(votes) < n.quorum() || newRound <= n.round {
		return
	}
	n.enterRoundLocked(newRound)
	// The new proposer re-proposes: a locked value survives (IBFT's
	// locking rule), otherwise the head of its queue goes out.
	if n.proposerOf(n.height, n.round) == n.cfg.ID {
		if n.locked {
			n.prepares = map[cluster.NodeID]bool{n.cfg.ID: true}
			n.commits = make(map[cluster.NodeID]bool)
			n.stallTicks = roundChangeTicks
			n.broadcast(preprepare{Height: n.height, Round: n.round, Digest: n.digest, Data: n.data})
		} else {
			n.maybeProposeLocked()
		}
	}
}

func (n *Node) enterRoundLocked(r uint64) {
	n.round = r
	n.stallTicks = roundChangeTicks
	if n.locked {
		// Keep the locked value but reset vote tallies for the new round.
		n.prepares = map[cluster.NodeID]bool{n.cfg.ID: true}
		n.commits = make(map[cluster.NodeID]bool)
	} else {
		n.prepares = make(map[cluster.NodeID]bool)
		n.commits = make(map[cluster.NodeID]bool)
	}
}
