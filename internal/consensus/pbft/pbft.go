// Package pbft implements Practical Byzantine Fault Tolerance over the
// simulated cluster: the three-phase pre-prepare/prepare/commit protocol
// with 2f+1 quorums out of n = 3f+1 replicas, plus view change for primary
// failover. It is the BFT protocol of the paper's taxonomy, used by the
// AHL sharded-blockchain model and by Fabric v0.6.
//
// Authentication model: the simulated network provides authenticated
// point-to-point channels (the PBFT-with-MACs variant), so protocol
// messages carry no signatures; payload-level signatures belong to the
// application layer. Checkpointing is replaced by delivering entries in
// contiguous order, which the systems built on top require anyway.
//
// A consensus.Loop drives each replica. Delivered instances stay in the
// replica's instance table, which is its log: a reader takes them by
// sequence number with Entries, woken by Notify, at its own pace, so a
// reader that falls behind stalls nobody.
package pbft

import (
	"fmt"
	"sync"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/cryptoutil"
)

// Config configures one replica. Its timers are the package's constants.
type Config struct {
	ID       cluster.NodeID
	Peers    []cluster.NodeID // all validators, including ID; len = 3f+1
	Endpoint *cluster.Endpoint
}

// Timers count ticks of the loop's clock (2 ms) and run only while work is
// outstanding.
const (
	// viewChangeTicks without progress trigger a view change.
	viewChangeTicks = 50
	// retransmitTicks separate retransmissions of the protocol messages
	// for in-flight instances. The simulated channels may drop messages
	// (fault injection); without retransmission a three-phase quorum waits
	// forever for a message that will never arrive and liveness
	// degenerates to view-change churn.
	retransmitTicks = 10
)

// F returns the number of Byzantine faults tolerated by a group of n.
func F(n int) int { return (n - 1) / 3 }

// instance is one sequence number's agreement state.
type instance struct {
	view        uint64
	digest      cryptoutil.Hash
	data        []byte
	prePrepared bool
	prepares    map[cluster.NodeID]bool
	commits     map[cluster.NodeID]bool
	committed   bool
	// fetchVotes collects state-transfer replies (fetched) by sender; the
	// instance is adopted once f+1 peers agree on the digest, so no single
	// faulty peer can feed this replica a fabricated committed value.
	fetchVotes map[cluster.NodeID]cryptoutil.Hash
}

// Node is a PBFT replica.
type Node struct {
	cfg Config
	f   int

	mu        sync.Mutex
	view      uint64
	nextSeq   uint64 // primary only: next sequence to assign
	delivered uint64 // highest contiguously delivered seq
	instances map[uint64]*instance
	pending   [][]byte // primary queue of unassigned payloads
	// forwarded holds payloads this replica knows are outstanding but is
	// not primary for, keyed by digest. It stands in for PBFT's client
	// behaviour of broadcasting requests to all replicas: while non-empty
	// the view-change timer runs, and on a view change the payloads are
	// re-sent to the new primary. A payload can commit twice across a view
	// change; systems deduplicate by transaction id.
	forwarded map[cryptoutil.Hash][]byte
	// assigned records digests this replica has sequenced (as primary) or
	// seen re-proposed in a new view or delivered; it deduplicates
	// retransmissions.
	assigned map[cryptoutil.Hash]bool
	// viewChangeVotes[v] collects replicas demanding view v.
	viewChangeVotes map[uint64]map[cluster.NodeID]*viewChange
	inViewChange    bool
	progressTicks   int
	retransTicks    int
	// votedView is the highest view this replica has demanded; repeated
	// timer expiries and catch-up votes re-target it instead of
	// regressing to view+1.
	votedView uint64
	// lastNewView is the new-view announcement this replica broadcast as
	// primary; it is re-sent to stragglers whose vote shows they missed
	// it (a dropped newView would otherwise strand them in the old view).
	lastNewView *newView

	loop consensus.Loop
}

var _ consensus.Node = (*Node)(nil)

// New starts a PBFT replica.
func New(cfg Config) *Node {
	n := &Node{
		cfg:             cfg,
		f:               F(len(cfg.Peers)),
		instances:       make(map[uint64]*instance),
		forwarded:       make(map[cryptoutil.Hash][]byte),
		assigned:        make(map[cryptoutil.Hash]bool),
		viewChangeVotes: make(map[uint64]map[cluster.NodeID]*viewChange),
		progressTicks:   viewChangeTicks,
	}
	n.loop.Start(cfg.Endpoint.Inbox(), n.tick, n.handle)
	return n
}

// primaryOf returns the primary replica for view v.
func (n *Node) primaryOf(v uint64) cluster.NodeID {
	return n.cfg.Peers[int(v)%len(n.cfg.Peers)]
}

// quorum is the 2f+1 threshold.
func (n *Node) quorum() int { return 2*n.f + 1 }

// --- messages ---

type forward struct{ Data []byte }

type prePrepare struct {
	View   uint64
	Seq    uint64
	Digest cryptoutil.Hash
	Data   []byte
}

type prepare struct {
	View   uint64
	Seq    uint64
	Digest cryptoutil.Hash
}

type commit struct {
	View   uint64
	Seq    uint64
	Digest cryptoutil.Hash
}

// preparedProof carries a prepared-but-undelivered instance into a view
// change so the new primary can re-propose it.
type preparedProof struct {
	Seq    uint64
	View   uint64
	Digest cryptoutil.Hash
	Data   []byte
}

type viewChange struct {
	NewView  uint64
	Prepared []preparedProof
}

type newView struct {
	View        uint64
	PrePrepares []prePrepare
}

// fetch asks peers to re-supply a sequence this replica is missing: its
// pre-prepare was dropped and every other replica has already delivered
// it, so ordinary retransmission (which covers only undelivered work)
// will never close the gap.
type fetch struct{ Seq uint64 }

// fetched answers a fetch with the committed instance — the crash-phase
// state-transfer path. The payload is self-certifying against Digest;
// the requester additionally waits for f+1 matching digests.
type fetched struct {
	View   uint64
	Seq    uint64
	Digest cryptoutil.Hash
	Data   []byte
}

func (m forward) Size() int    { return 8 + len(m.Data) }
func (m prePrepare) Size() int { return 48 + len(m.Data) }
func (m prepare) Size() int    { return 48 }
func (m commit) Size() int     { return 48 }
func (m fetch) Size() int      { return 8 }
func (m fetched) Size() int    { return 48 + len(m.Data) }
func (m viewChange) Size() int {
	s := 16
	for _, p := range m.Prepared {
		s += 48 + len(p.Data)
	}
	return s
}
func (m newView) Size() int {
	s := 8
	for _, p := range m.PrePrepares {
		s += 48 + len(p.Data)
	}
	return s
}

// --- public API ---

// Propose implements consensus.Node. Non-primaries forward to the current
// primary.
func (n *Node) Propose(data []byte) error {
	if n.loop.Stopped() {
		return consensus.ErrStopped
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.inViewChange {
		return fmt.Errorf("%w: view change in progress", consensus.ErrNotLeader)
	}
	// Like a PBFT client, announce the request to every replica: backups
	// track it as outstanding (arming their view-change timers), the
	// primary sequences it.
	n.broadcast(forward{Data: data})
	if n.primaryOf(n.view) == n.cfg.ID {
		n.enqueueLocked(data)
		return nil
	}
	n.forwarded[cryptoutil.HashBytes(data)] = data
	return nil
}

// enqueueLocked queues a payload for sequencing, dropping digests already
// sequenced (retransmissions after a view change).
func (n *Node) enqueueLocked(data []byte) {
	if n.assigned[cryptoutil.HashBytes(data)] {
		return
	}
	n.pending = append(n.pending, data)
	n.drainPendingLocked()
}

// drainPendingLocked assigns sequence numbers to queued payloads and
// broadcasts pre-prepares. Primary only.
func (n *Node) drainPendingLocked() {
	for _, data := range n.pending {
		n.nextSeq++
		seq := n.nextSeq
		digest := cryptoutil.HashBytes(data)
		n.assigned[digest] = true
		pp := prePrepare{View: n.view, Seq: seq, Digest: digest, Data: data}
		inst := n.getInstance(seq)
		inst.view = n.view
		inst.digest = digest
		inst.data = data
		inst.prePrepared = true
		n.broadcast(pp)
		// The primary's own prepare is implicit in the pre-prepare; count it.
		inst.prepares[n.cfg.ID] = true
	}
	n.pending = nil
}

// Entries implements consensus.Node: instances from..delivered, which are
// never deleted (only undelivered ones are, on a view change).
func (n *Node) Entries(from uint64, buf []consensus.Entry) []consensus.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	for seq := max(from, 1); seq <= n.delivered; seq++ {
		inst := n.instances[seq]
		buf = append(buf, consensus.Entry{Index: seq, Data: inst.data, Term: inst.view})
	}
	return buf
}

// Notify implements consensus.Node.
func (n *Node) Notify() <-chan struct{} { return n.loop.Notify() }

// Committed implements consensus.Node.
func (n *Node) Committed() <-chan consensus.Entry { return n.loop.Committed(n) }

// IsLeader implements consensus.Node.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.inViewChange && n.primaryOf(n.view) == n.cfg.ID
}

// Leader returns the current view's primary — during a view change the
// old view's, a hint a proposer may find stale.
func (n *Node) Leader() cluster.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primaryOf(n.view)
}

// View returns the current view number.
func (n *Node) View() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view
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

// tick drives the retransmission and view-change timers: both count
// down only while there is outstanding work (undelivered instances or
// queued payloads).
func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.outstandingLocked() {
		// A view change this replica demanded while stranded is moot once
		// state transfer delivers everything: a content majority will
		// never vote for it, so staying in it wedges this replica forever.
		// The vote already broadcast still counts at peers that do need
		// the view change, so retracting is purely local.
		n.inViewChange = false
		n.progressTicks = viewChangeTicks
		return
	}
	if n.retransTicks--; n.retransTicks <= 0 {
		n.retransmitLocked()
		n.retransTicks = retransmitTicks
	}
	n.progressTicks--
	if n.progressTicks > 0 {
		return
	}
	newV := n.view + 1
	if n.votedView > newV {
		newV = n.votedView
	}
	n.startViewChangeLocked(newV)
}

// retransmitLocked re-sends the protocol messages for in-flight work in
// the current view: the primary's pre-prepares, this replica's prepare
// and (once sent) commit votes, and outstanding payload announcements
// to the primary. Every handler is idempotent — quorums are sets — so a
// duplicate costs bandwidth, while a dropped message without
// retransmission costs a whole view change.
func (n *Node) retransmitLocked() {
	// Always offer the delivery gap to state transfer, even mid
	// view-change: whether the gap lost its pre-prepare or its commit
	// quorum, peers that already delivered it are silent, so only a
	// fetch can close it. Peers that haven't delivered it just ignore.
	n.broadcast(fetch{Seq: n.delivered + 1})
	if n.inViewChange {
		return // the view-change timer re-broadcasts its own vote
	}
	primary := n.primaryOf(n.view)
	for seq, inst := range n.instances {
		if seq <= n.delivered || !inst.prePrepared || inst.view != n.view {
			continue
		}
		if primary == n.cfg.ID {
			n.broadcast(prePrepare{View: inst.view, Seq: seq, Digest: inst.digest, Data: inst.data})
		}
		n.broadcast(prepare{View: inst.view, Seq: seq, Digest: inst.digest})
		if inst.commits[n.cfg.ID] {
			n.broadcast(commit{View: inst.view, Seq: seq, Digest: inst.digest})
		}
	}
	if primary != n.cfg.ID {
		for digest, data := range n.forwarded {
			if !n.assigned[digest] {
				_ = n.cfg.Endpoint.Send(primary, forward{Data: data})
			}
		}
	}
}

// catchUpLocked reacts to protocol traffic from a view ahead of this
// replica's: the new-view announcement was dropped. Demanding the
// sender's view makes the sitting primary re-send it (see onViewChange).
func (n *Node) catchUpLocked(msgView uint64) {
	if msgView <= n.view {
		return
	}
	if n.inViewChange && n.votedView >= msgView {
		return // already demanding it; the timer retransmits the vote
	}
	n.startViewChangeLocked(msgView)
}

func (n *Node) outstandingLocked() bool {
	if len(n.pending) > 0 || len(n.forwarded) > 0 {
		return true
	}
	for seq, inst := range n.instances {
		// Orphan prepare/commit votes above the watermark count too: they
		// are evidence the group sequenced something this replica never
		// saw the pre-prepare for, and the fetch path must keep running.
		if seq > n.delivered && (inst.prePrepared || len(inst.prepares) > 0 || len(inst.commits) > 0) {
			return true
		}
	}
	return false
}

func (n *Node) getInstance(seq uint64) *instance {
	inst, ok := n.instances[seq]
	if !ok {
		inst = &instance{
			prepares: make(map[cluster.NodeID]bool),
			commits:  make(map[cluster.NodeID]bool),
		}
		n.instances[seq] = inst
	}
	return inst
}

func (n *Node) handle(env cluster.Envelope) {
	switch msg := env.Msg.(type) {
	case forward:
		n.onForward(msg)
	case prePrepare:
		n.onPrePrepare(env.From, msg)
	case prepare:
		n.onPrepare(env.From, msg)
	case commit:
		n.onCommit(env.From, msg)
	case viewChange:
		n.onViewChange(env.From, msg)
	case newView:
		n.onNewView(env.From, msg)
	case fetch:
		n.onFetch(env.From, msg)
	case fetched:
		n.onFetched(env.From, msg)
	}
}

// onFetch serves state transfer for a sequence this replica delivered;
// instances are retained after delivery, so the payload is still here.
func (n *Node) onFetch(from cluster.NodeID, msg fetch) {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst, ok := n.instances[msg.Seq]
	if !ok || msg.Seq > n.delivered {
		return
	}
	_ = n.cfg.Endpoint.Send(from, fetched{
		View: inst.view, Seq: msg.Seq, Digest: inst.digest, Data: inst.data,
	})
}

// onFetched adopts a state-transferred instance once f+1 peers agree on
// its digest (at least one of them is correct) and the payload hashes
// to that digest, then delivers anything the filled gap unblocks.
func (n *Node) onFetched(from cluster.NodeID, msg fetched) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.Seq <= n.delivered || cryptoutil.HashBytes(msg.Data) != msg.Digest {
		return
	}
	inst := n.getInstance(msg.Seq)
	if inst.fetchVotes == nil {
		inst.fetchVotes = make(map[cluster.NodeID]cryptoutil.Hash)
	}
	inst.fetchVotes[from] = msg.Digest
	votes := 0
	for _, d := range inst.fetchVotes {
		if d == msg.Digest {
			votes++
		}
	}
	if votes < n.f+1 {
		return
	}
	inst.view = msg.View
	inst.digest = msg.Digest
	inst.data = msg.Data
	inst.prePrepared = true
	inst.committed = true
	n.progressTicks = viewChangeTicks
	n.deliverReadyLocked()
}

func (n *Node) onForward(msg forward) {
	n.mu.Lock()
	defer n.mu.Unlock()
	digest := cryptoutil.HashBytes(msg.Data)
	if n.assigned[digest] {
		return
	}
	if !n.inViewChange && n.primaryOf(n.view) == n.cfg.ID {
		n.enqueueLocked(msg.Data)
		return
	}
	// Track as outstanding so a dead primary triggers a view change here.
	n.forwarded[digest] = msg.Data
}

func (n *Node) onPrePrepare(from cluster.NodeID, msg prePrepare) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.View > n.view {
		n.catchUpLocked(msg.View)
		return
	}
	if n.inViewChange || msg.View != n.view || from != n.primaryOf(msg.View) {
		return
	}
	if cryptoutil.HashBytes(msg.Data) != msg.Digest {
		return // Byzantine primary sent inconsistent payload
	}
	inst := n.getInstance(msg.Seq)
	if inst.prePrepared && inst.digest != msg.Digest && inst.view == msg.View {
		return // conflicting pre-prepare for the same (view, seq): ignore
	}
	inst.view = msg.View
	inst.digest = msg.Digest
	inst.data = msg.Data
	inst.prePrepared = true
	inst.prepares[from] = true // primary's implicit prepare
	inst.prepares[n.cfg.ID] = true
	n.progressTicks = viewChangeTicks
	n.broadcast(prepare{View: msg.View, Seq: msg.Seq, Digest: msg.Digest})
	n.maybeAdvanceLocked(msg.Seq)
}

func (n *Node) onPrepare(from cluster.NodeID, msg prepare) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.View > n.view {
		n.catchUpLocked(msg.View)
		return
	}
	if msg.View != n.view {
		return
	}
	inst := n.getInstance(msg.Seq)
	if inst.prePrepared && inst.digest != msg.Digest {
		return
	}
	inst.prepares[from] = true
	n.maybeAdvanceLocked(msg.Seq)
}

func (n *Node) onCommit(from cluster.NodeID, msg commit) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.View > n.view {
		n.catchUpLocked(msg.View)
		return
	}
	inst := n.getInstance(msg.Seq)
	if inst.prePrepared && inst.digest != msg.Digest {
		return
	}
	inst.commits[from] = true
	n.maybeAdvanceLocked(msg.Seq)
}

// maybeAdvanceLocked moves an instance through prepared → committed →
// delivered as quorums fill in.
func (n *Node) maybeAdvanceLocked(seq uint64) {
	inst := n.instances[seq]
	if inst == nil || !inst.prePrepared {
		return
	}
	// Prepared: pre-prepare + 2f prepares (own included above).
	if !inst.committed && len(inst.prepares) >= n.quorum() {
		if !inst.commits[n.cfg.ID] {
			inst.commits[n.cfg.ID] = true
			n.broadcast(commit{View: inst.view, Seq: seq, Digest: inst.digest})
		}
	}
	if !inst.committed && len(inst.commits) >= n.quorum() {
		inst.committed = true
		n.progressTicks = viewChangeTicks
	}
	n.deliverReadyLocked()
}

func (n *Node) deliverReadyLocked() {
	for {
		next := n.delivered + 1
		inst, ok := n.instances[next]
		if !ok || !inst.committed {
			return
		}
		n.delivered = next
		delete(n.forwarded, inst.digest)
		n.assigned[inst.digest] = true
		n.loop.Signal()
	}
}

// --- view change ---

func (n *Node) startViewChangeLocked(newV uint64) {
	if newV <= n.view {
		return
	}
	n.inViewChange = true
	n.progressTicks = viewChangeTicks
	n.votedView = newV
	vc := &viewChange{NewView: newV, Prepared: n.preparedSetLocked()}
	// Record own vote and broadcast.
	votes := n.viewChangeVotes[newV]
	if votes == nil {
		votes = make(map[cluster.NodeID]*viewChange)
		n.viewChangeVotes[newV] = votes
	}
	votes[n.cfg.ID] = vc
	n.broadcast(*vc)
	n.maybeEnterViewLocked(newV)
}

// preparedSetLocked lists instances this replica prepared but has not yet
// delivered; they must survive into the new view.
func (n *Node) preparedSetLocked() []preparedProof {
	var out []preparedProof
	for seq, inst := range n.instances {
		if seq <= n.delivered || !inst.prePrepared {
			continue
		}
		if len(inst.prepares) >= n.quorum() {
			out = append(out, preparedProof{Seq: seq, View: inst.view, Digest: inst.digest, Data: inst.data})
		}
	}
	return out
}

func (n *Node) onViewChange(from cluster.NodeID, msg viewChange) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.NewView <= n.view {
		// A vote for the view this primary already announced means the
		// voter never received the newView message; re-send it directly.
		if msg.NewView == n.view && n.primaryOf(n.view) == n.cfg.ID &&
			!n.inViewChange && n.lastNewView != nil {
			_ = n.cfg.Endpoint.Send(from, *n.lastNewView)
		}
		return
	}
	votes := n.viewChangeVotes[msg.NewView]
	if votes == nil {
		votes = make(map[cluster.NodeID]*viewChange)
		n.viewChangeVotes[msg.NewView] = votes
	}
	votes[from] = &msg
	// Join the view change once f+1 replicas demand it (the replica knows
	// at least one honest node timed out).
	if !n.inViewChange && len(votes) > n.f {
		n.startViewChangeLocked(msg.NewView)
		return
	}
	n.maybeEnterViewLocked(msg.NewView)
}

func (n *Node) maybeEnterViewLocked(newV uint64) {
	votes := n.viewChangeVotes[newV]
	if len(votes) < n.quorum() || n.primaryOf(newV) != n.cfg.ID {
		return
	}
	// New primary: merge prepared sets, re-propose the survivors.
	merged := make(map[uint64]preparedProof)
	for _, vc := range votes {
		for _, p := range vc.Prepared {
			cur, ok := merged[p.Seq]
			if !ok || p.View > cur.View {
				merged[p.Seq] = p
			}
		}
	}
	nv := newView{View: newV}
	maxSeq := n.delivered
	for seq := range merged {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	// Re-propose every sequence up to maxSeq: surviving prepared values
	// keep their payload, gaps become no-ops (empty Data) so delivery
	// never stalls behind an abandoned sequence number.
	for seq := n.delivered + 1; seq <= maxSeq; seq++ {
		p, ok := merged[seq]
		if !ok {
			p = preparedProof{Seq: seq, Digest: cryptoutil.HashBytes(nil), Data: nil}
		}
		nv.PrePrepares = append(nv.PrePrepares, prePrepare{
			View: newV, Seq: seq, Digest: p.Digest, Data: p.Data,
		})
	}
	n.enterViewLocked(newV)
	n.nextSeq = maxSeq
	n.lastNewView = &nv
	n.broadcast(nv)
	for _, pp := range nv.PrePrepares {
		inst := n.getInstance(pp.Seq)
		inst.view = newV
		inst.digest = pp.Digest
		inst.data = pp.Data
		inst.prePrepared = true
		inst.prepares = map[cluster.NodeID]bool{n.cfg.ID: true}
		inst.commits = map[cluster.NodeID]bool{}
		n.assigned[pp.Digest] = true
	}
	// Re-propose payloads that were stranded at the old primary.
	n.drainPendingLocked()
}

func (n *Node) onNewView(from cluster.NodeID, msg newView) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if msg.View < n.view || from != n.primaryOf(msg.View) {
		return
	}
	if msg.View == n.view && !n.inViewChange {
		return // duplicate announcement for a view already entered
	}
	n.enterViewLocked(msg.View)
	for _, pp := range msg.PrePrepares {
		if cryptoutil.HashBytes(pp.Data) != pp.Digest {
			continue
		}
		inst := n.getInstance(pp.Seq)
		inst.view = msg.View
		inst.digest = pp.Digest
		inst.data = pp.Data
		inst.prePrepared = true
		inst.prepares = map[cluster.NodeID]bool{from: true, n.cfg.ID: true}
		inst.commits = map[cluster.NodeID]bool{}
		n.broadcast(prepare{View: msg.View, Seq: pp.Seq, Digest: pp.Digest})
		n.maybeAdvanceLocked(pp.Seq)
	}
}

func (n *Node) enterViewLocked(v uint64) {
	n.view = v
	n.inViewChange = false
	n.progressTicks = viewChangeTicks
	// Retransmit unacknowledged forwards to the new primary, or queue them
	// locally when this replica takes over (the caller drains the queue
	// after it finishes setting up the new view).
	if primary := n.primaryOf(v); primary == n.cfg.ID {
		for digest, data := range n.forwarded {
			if !n.assigned[digest] {
				n.pending = append(n.pending, data)
			}
		}
		n.forwarded = make(map[cryptoutil.Hash][]byte)
	} else {
		for _, data := range n.forwarded {
			_ = n.cfg.Endpoint.Send(primary, forward{Data: data})
		}
	}
	// Un-prepared instances from old views are abandoned; clients retry.
	for seq, inst := range n.instances {
		if seq > n.delivered && !inst.committed && inst.view < v {
			if len(inst.prepares) < n.quorum() {
				delete(n.instances, seq)
			}
		}
	}
	delete(n.viewChangeVotes, v)
}
