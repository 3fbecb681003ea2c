package raft

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/israce"
)

// group spins up n raft replicas on a fresh network.
func group(t *testing.T, n int) (*cluster.Network, []*Node) {
	t.Helper()
	net := cluster.NewNetwork(cluster.ZeroLink{})
	peers := make([]cluster.NodeID, n)
	for i := range peers {
		peers[i] = cluster.NodeID(i)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(Config{
			ID:       peers[i],
			Peers:    peers,
			Endpoint: net.Register(peers[i], 4096),
		})
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		net.Close()
	})
	return net, nodes
}

func waitLeader(t *testing.T, nodes []*Node, timeout time.Duration) *Node {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.IsLeader() {
				return n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil
}

func collect(t *testing.T, n *Node, count int, timeout time.Duration) []consensus.Entry {
	t.Helper()
	var out []consensus.Entry
	deadline := time.After(timeout)
	for len(out) < count {
		select {
		case e, ok := <-n.Committed():
			if !ok {
				t.Fatalf("commit channel closed after %d entries", len(out))
			}
			out = append(out, e)
		case <-deadline:
			t.Fatalf("timed out with %d/%d entries", len(out), count)
		}
	}
	return out
}

func TestSingleNodeCommits(t *testing.T) {
	_, nodes := group(t, 1)
	leader := waitLeader(t, nodes, 2*time.Second)
	if err := leader.Propose([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	entries := collect(t, leader, 1, 2*time.Second)
	if string(entries[0].Data) != "solo" || entries[0].Index != 1 {
		t.Fatalf("got %+v", entries[0])
	}
}

func TestElectsExactlyOneLeader(t *testing.T) {
	_, nodes := group(t, 5)
	waitLeader(t, nodes, 2*time.Second)
	time.Sleep(100 * time.Millisecond) // let the election settle
	leaders := 0
	term := uint64(0)
	for _, n := range nodes {
		if n.IsLeader() {
			leaders++
			term = n.Term()
		}
	}
	if leaders != 1 {
		t.Fatalf("found %d leaders, want 1", leaders)
	}
	// All nodes should agree on the leader's term eventually.
	for _, n := range nodes {
		if n.Term() != term {
			t.Fatalf("term disagreement: %d vs %d", n.Term(), term)
		}
	}
}

func TestReplicatesToAll(t *testing.T) {
	_, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	const total = 50
	for i := 0; i < total; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		entries := collect(t, n, total, 5*time.Second)
		for i, e := range entries {
			if e.Index != uint64(i+1) {
				t.Fatalf("node %d: entry %d has index %d", n.cfg.ID, i, e.Index)
			}
			if string(e.Data) != fmt.Sprintf("op-%d", i) {
				t.Fatalf("node %d: entry %d = %q", n.cfg.ID, i, e.Data)
			}
		}
	}
}

func TestFollowerForwardsProposals(t *testing.T) {
	_, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	var follower *Node
	for _, n := range nodes {
		if n != leader {
			follower = n
			break
		}
	}
	// The follower may briefly not know the leader; retry.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := follower.Propose([]byte("via-follower"))
		if err == nil {
			break
		}
		if !errors.Is(err, consensus.ErrNotLeader) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never learned the leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
	entries := collect(t, leader, 1, 2*time.Second)
	if string(entries[0].Data) != "via-follower" {
		t.Fatalf("got %q", entries[0].Data)
	}
}

func TestLeaderFailover(t *testing.T) {
	net, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	if err := leader.Propose([]byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	// Every node must commit the first entry before the crash.
	for _, n := range nodes {
		collect(t, n, 1, 2*time.Second)
	}
	net.Crash(leader.cfg.ID)

	// A new leader must emerge among the survivors.
	survivors := make([]*Node, 0, 2)
	for _, n := range nodes {
		if n != leader {
			survivors = append(survivors, n)
		}
	}
	var newLeader *Node
	deadline := time.Now().Add(5 * time.Second)
	for newLeader == nil && time.Now().Before(deadline) {
		for _, n := range survivors {
			if n.IsLeader() {
				newLeader = n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if newLeader == nil {
		t.Fatal("no failover")
	}
	if err := newLeader.Propose([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	for _, n := range survivors {
		entries := collect(t, n, 1, 5*time.Second)
		if string(entries[0].Data) != "after-crash" {
			t.Fatalf("survivor got %q", entries[0].Data)
		}
	}
}

func TestCrashedFollowerCatchesUp(t *testing.T) {
	net, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	var follower *Node
	for _, n := range nodes {
		if n != leader {
			follower = n
			break
		}
	}
	net.Crash(follower.cfg.ID)
	const total = 20
	for i := 0; i < total; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, leader, total, 5*time.Second)
	net.Restart(follower.cfg.ID)
	entries := collect(t, follower, total, 5*time.Second)
	if string(entries[total-1].Data) != fmt.Sprintf("op-%d", total-1) {
		t.Fatalf("follower tail = %q", entries[total-1].Data)
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	net, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	// Cut the leader off from both followers.
	for _, n := range nodes {
		if n != leader {
			net.Partition(leader.cfg.ID, n.cfg.ID)
		}
	}
	_ = leader.Propose([]byte("doomed"))
	select {
	case e := <-leader.Committed():
		t.Fatalf("minority leader committed %q", e.Data)
	case <-time.After(300 * time.Millisecond):
	}
	// Majority side elects a new leader and commits.
	var newLeader *Node
	deadline := time.Now().Add(5 * time.Second)
	for newLeader == nil && time.Now().Before(deadline) {
		for _, n := range nodes {
			if n != leader && n.IsLeader() {
				newLeader = n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if newLeader == nil {
		t.Fatal("majority never elected a leader")
	}
	if err := newLeader.Propose([]byte("survives")); err != nil {
		t.Fatal(err)
	}
	entries := collect(t, newLeader, 1, 5*time.Second)
	if string(entries[0].Data) != "survives" {
		t.Fatalf("got %q", entries[0].Data)
	}
}

func TestLogsConvergeAfterHeal(t *testing.T) {
	net, nodes := group(t, 5)
	leader := waitLeader(t, nodes, 2*time.Second)
	var isolated *Node
	for _, n := range nodes {
		if n != leader {
			isolated = n
			break
		}
	}
	for _, n := range nodes {
		if n != isolated {
			net.Partition(isolated.cfg.ID, n.cfg.ID)
		}
	}
	const total = 10
	for i := 0; i < total; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, leader, total, 5*time.Second)
	net.HealAll()
	entries := collect(t, isolated, total, 5*time.Second)
	for i, e := range entries {
		if string(e.Data) != fmt.Sprintf("op-%d", i) {
			t.Fatalf("entry %d = %q after heal", i, e.Data)
		}
	}
}

func TestProposeAfterStop(t *testing.T) {
	_, nodes := group(t, 1)
	waitLeader(t, nodes, 2*time.Second)
	nodes[0].Stop()
	if err := nodes[0].Propose([]byte("late")); !errors.Is(err, consensus.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestThroughputUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	_, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	const total = 2000
	go func() {
		for i := 0; i < total; i++ {
			for leader.Propose([]byte("payload-of-reasonable-size")) != nil {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	entries := collect(t, leader, total, 30*time.Second)
	if len(entries) != total {
		t.Fatalf("committed %d, want %d", len(entries), total)
	}
}

// TestRecoveringReplicaDoesNotVoteOrCampaign pins the recovery mode's
// safety half: a replica that lost its raft state must neither campaign
// nor grant votes until caught up. In a 2-node group where the second
// member is recovering, no candidate can ever assemble a quorum — the
// group must stay leaderless.
func TestRecoveringReplicaDoesNotVoteOrCampaign(t *testing.T) {
	net := cluster.NewNetwork(cluster.ZeroLink{})
	defer net.Close()
	peers := []cluster.NodeID{0, 1}
	healthy := New(Config{ID: 0, Peers: peers, Endpoint: net.Register(0, 4096)})
	defer healthy.Stop()
	recovering := New(Config{ID: 1, Peers: peers, Endpoint: net.Register(1, 4096), Recovering: true})
	defer recovering.Stop()
	time.Sleep(500 * time.Millisecond)
	if healthy.IsLeader() || recovering.IsLeader() {
		t.Fatal("a leader was elected with only a recovering second voter")
	}
	if !recovering.Recovering() {
		t.Fatal("recovering replica left recovery without a leader to catch up from")
	}
}

// TestRecoveredReplicaCatchesUpAndRejoins pins the recovery mode's
// liveness half: a recovering replica rebuilt with an empty log catches
// up through ordinary re-replication, exits recovery once its log covers
// the leader's commit index, and then observes the exact committed
// sequence the healthy replicas hold — including entries committed while
// it was down.
func TestRecoveredReplicaCatchesUpAndRejoins(t *testing.T) {
	net, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	var follower *Node
	for _, n := range nodes {
		if n != leader {
			follower = n
			break
		}
	}
	propose := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := leader.Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	propose(0, 10)
	reference := collect(t, leader, 10, 5*time.Second)

	// Crash the follower and lose its raft state entirely.
	id := follower.cfg.ID
	net.Crash(id)
	follower.Stop()
	propose(10, 20)
	reference = append(reference, collect(t, leader, 10, 5*time.Second)...)

	// Reboot it on the same endpoint as a fresh, recovering node.
	net.Restart(id)
	replacement := New(Config{ID: id, Peers: leader.cfg.Peers, Endpoint: follower.cfg.Endpoint, Recovering: true})
	defer replacement.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for replacement.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("replacement never exited recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	propose(20, 25)
	reference = append(reference, collect(t, leader, 5, 5*time.Second)...)

	entries := collect(t, replacement, 25, 5*time.Second)
	for i, e := range entries {
		if e.Index != reference[i].Index || string(e.Data) != string(reference[i].Data) {
			t.Fatalf("entry %d: replacement (%d, %q) != leader (%d, %q)",
				i, e.Index, e.Data, reference[i].Index, reference[i].Data)
		}
	}
}

// TestNewLeaderCommitsInheritedTail: an entry the old leader committed —
// and so may have acknowledged to a client — but whose commit no follower
// heard of must still be delivered by the survivors after the leader dies,
// without waiting for a further proposal. A leader may not count replicas
// for an entry of an older term (§5.4.2), so the new leader's empty entry
// of its own term is what commits the inherited tail.
func TestNewLeaderCommitsInheritedTail(t *testing.T) {
	net, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	id := leader.cfg.ID

	// From here on each follower gets one more message from the leader —
	// the appendEntries carrying X, whose leaderCommit still precedes X —
	// and nothing after it. The hook is armed and X appended (what Propose
	// does on a leader) under the leader's lock, so no heartbeat can slip
	// between the two and use up a follower's one message.
	var mu sync.Mutex
	passed := map[cluster.NodeID]bool{}
	leader.mu.Lock()
	net.SetFaults(func(from, to cluster.NodeID) (bool, time.Duration) {
		if from != id {
			return false, 0
		}
		mu.Lock()
		defer mu.Unlock()
		drop := passed[to]
		passed[to] = true
		return drop, 0
	})
	leader.appendLocal([]byte("X"))
	leader.mu.Unlock()

	if e := collect(t, leader, 1, 2*time.Second)[0]; string(e.Data) != "X" {
		t.Fatalf("leader committed %q, want X", e.Data)
	}
	net.Crash(id)
	leader.Stop()
	for _, n := range nodes {
		if n == leader {
			continue
		}
		// A few election timeouts (30–60 ms each), no further Propose.
		if e := collect(t, n, 1, 2*time.Second)[0]; string(e.Data) != "X" || e.Index != 1 {
			t.Fatalf("survivor %d delivered (%d, %q), want (1, X)", n.cfg.ID, e.Index, e.Data)
		}
	}
}

// idle returns a stopped replica: its state is the caller's alone to drive,
// one handler at a time. Its log must not commit anything, as nothing
// delivers a stopped node's commits.
func idle(cfg Config) *Node {
	n := New(cfg)
	n.Stop()
	return n
}

// An AppendEntries message carries a slice of its sender's log, not a copy.
// A leader deposed while one is in flight, whose log a conflicting append
// then truncates, must not rewrite the entries that message carries.
func TestInFlightAppendKeepsItsEntries(t *testing.T) {
	net := cluster.NewNetwork(cluster.ZeroLink{})
	defer net.Close()
	peers := []cluster.NodeID{1, 2, 3}
	inbox2 := net.Register(2, 16).Inbox()
	net.Register(3, 16)
	n := idle(Config{ID: 1, Peers: peers, Endpoint: net.Register(1, 16)})
	n.mu.Lock()
	defer n.mu.Unlock()

	// Node 1 leads term 1 with two entries of its own and sends them.
	n.term = 1
	n.becomeLeaderLocked() // over an empty log: no no-op, and an empty heartbeat
	n.appendLocal([]byte("a"))
	n.appendLocal([]byte("b"))
	n.sendAppendLocked(2)
	var sent appendEntries
	for len(sent.Entries) == 0 {
		sent, _ = (<-inbox2).Msg.(appendEntries)
	}
	if cap(sent.Entries) != len(sent.Entries) {
		t.Fatalf("message entries have cap %d beyond their %d", cap(sent.Entries), len(sent.Entries))
	}

	// Node 3 leads term 2 and replaces index 2.
	n.mu.Unlock()
	n.onAppendEntries(3, appendEntries{Term: 2, PrevLogIndex: 1, PrevLogTerm: 1,
		Entries: []logEntry{{Term: 2, Data: []byte("x")}}})
	n.mu.Lock()
	if n.role != follower || n.log.At(2).Term != 2 || string(n.log.At(2).Data) != "x" {
		t.Fatalf("after the conflicting append: role %v, log[2] %+v", n.role, n.log.At(2))
	}
	want := []logEntry{{Term: 1, Data: []byte("a")}, {Term: 1, Data: []byte("b")}}
	if fmt.Sprint(sent.Entries) != fmt.Sprint(want) {
		t.Fatalf("in-flight message now carries %v, was sent with %v", sent.Entries, want)
	}
}

const page = consensus.LogPage

// A conflict truncation exactly at a page boundary drops the page above it,
// and one mid-page copies the page it cuts: either way, an AppendEntries
// message the deposed leader sent from that page keeps its entries.
func TestInFlightAppendKeepsItsEntriesAcrossPages(t *testing.T) {
	for _, c := range []struct {
		name     string
		conflict uint64 // the first index the next leader replaces
	}{
		{"at-boundary", page},
		{"mid-page", page + page/2},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := cluster.NewNetwork(cluster.ZeroLink{})
			defer net.Close()
			peers := []cluster.NodeID{1, 2, 3}
			inbox2 := net.Register(2, 16).Inbox()
			net.Register(3, 16)
			n := idle(Config{ID: 1, Peers: peers, Endpoint: net.Register(1, 16)})
			n.mu.Lock()
			defer n.mu.Unlock()

			// Node 1 leads term 1 with two pages of entries, and sends node 2
			// those from the conflict point on.
			n.term = 1
			n.becomeLeaderLocked()
			for i := 1; i < 2*page; i++ {
				n.appendLocal([]byte(fmt.Sprint(i)))
			}
			n.nextIndex[2] = c.conflict
			n.sendAppendLocked(2)
			var sent appendEntries
			for len(sent.Entries) == 0 {
				sent, _ = (<-inbox2).Msg.(appendEntries)
			}
			if sent.PrevLogIndex != c.conflict-1 {
				t.Fatalf("message follows index %d, want %d", sent.PrevLogIndex, c.conflict-1)
			}

			// Node 3 leads term 2 and replaces the log from the conflict point.
			n.mu.Unlock()
			n.onAppendEntries(3, appendEntries{Term: 2, PrevLogIndex: c.conflict - 1, PrevLogTerm: 1,
				Entries: []logEntry{{Term: 2, Data: []byte("x")}}})
			n.mu.Lock()
			if e := n.log.At(c.conflict); n.lastIndex() != c.conflict || e.Term != 2 || string(e.Data) != "x" {
				t.Fatalf("after the conflicting append: last index %d, entry %d %+v", n.lastIndex(), c.conflict, e)
			}
			for k, e := range sent.Entries {
				if want := fmt.Sprint(c.conflict + uint64(k)); e.Term != 1 || string(e.Data) != want {
					t.Fatalf("in-flight entry %d now reads (%d, %q), was sent as (1, %q)", k, e.Term, e.Data, want)
				}
			}
		})
	}
}

// waitCommitted waits until n has committed index idx.
func waitCommitted(t *testing.T, n *Node, idx uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		n.mu.Lock()
		got := n.commitIndex
		n.mu.Unlock()
		if got >= idx {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d committed %d of %d", n.cfg.ID, got, idx)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A follower that missed more than three pages of the log catches up over
// messages clipped at page ends, and then holds the leader's log entry for
// entry.
func TestFollowerCatchesUpAcrossPages(t *testing.T) {
	net, nodes := group(t, 3)
	leader := waitLeader(t, nodes, 2*time.Second)
	var follower *Node
	for _, n := range nodes {
		if n != leader {
			follower = n
			break
		}
	}
	net.Crash(follower.cfg.ID)
	const total = 3*page + page/2
	for i := 0; i < total; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCommitted(t, leader, total, 10*time.Second)
	net.Restart(follower.cfg.ID)
	waitCommitted(t, follower, total, 10*time.Second)
	want, got := leader.Entries(1, nil)[:total], follower.Entries(1, nil)[:total]
	for i := range want {
		if got[i].Index != want[i].Index || got[i].Term != want[i].Term || string(got[i].Data) != string(want[i].Data) {
			t.Fatalf("entry %d: follower (%d, %d, %q), leader (%d, %d, %q)", i,
				got[i].Index, got[i].Term, got[i].Data, want[i].Index, want[i].Term, want[i].Data)
		}
	}
	if string(got[total-1].Data) != fmt.Sprintf("op-%d", total-1) {
		t.Fatalf("follower's entry %d = %q", total, got[total-1].Data)
	}
}

// Sending a batch of entries allocates the message alone — boxing it for
// the transport — and no copy of the entries it carries.
func TestSendAppendAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	net := cluster.NewNetwork(cluster.ZeroLink{})
	defer net.Close()
	net.Register(2, 1024)
	n := idle(Config{ID: 1, Peers: []cluster.NodeID{1, 2}, Endpoint: net.Register(1, 1024)})
	n.mu.Lock()
	defer n.mu.Unlock()
	n.term = 1
	n.becomeLeaderLocked()
	for i := 0; i < 8; i++ {
		n.appendLocal([]byte("entry"))
	}
	if got := testing.AllocsPerRun(200, func() { n.sendAppendLocked(2) }); got != 1 {
		t.Errorf("sendAppendLocked of 8 entries: %v allocs, want 1", got)
	}
}

// An entry carries a whole block's wire bytes (a Quorum block, a shared-log
// record), not a handle, so every message that carries entries counts
// their bytes in its Size — what a link model charges for.
func TestMessageSizeCountsEntryBytes(t *testing.T) {
	entry := make([]byte, consensus.Header+2522)
	for _, c := range []struct {
		msg     cluster.Message
		payload int
	}{
		{forward{Data: entry}, len(entry)},
		{appendEntries{Entries: []logEntry{{Data: entry}, {Data: entry}}}, 2 * len(entry)},
	} {
		if got := c.msg.Size(); got < c.payload {
			t.Errorf("%T: Size %d, below the %d payload bytes it carries", c.msg, got, c.payload)
		}
	}
}
