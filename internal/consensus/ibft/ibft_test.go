package ibft

import (
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/cryptoutil"
)

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
			Endpoint: net.Register(peers[i], 8192),
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

func collect(t *testing.T, n *Node, count int, timeout time.Duration) []consensus.Entry {
	t.Helper()
	var out []consensus.Entry
	deadline := time.After(timeout)
	for len(out) < count {
		select {
		case e, ok := <-n.Committed():
			if !ok {
				t.Fatalf("commit channel closed at %d entries", len(out))
			}
			out = append(out, e)
		case <-deadline:
			t.Fatalf("timeout with %d/%d entries", len(out), count)
		}
	}
	return out
}

func TestSingleEntryCommits(t *testing.T) {
	_, nodes := group(t, 4)
	if err := nodes[0].Propose([]byte("block-1")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		entries := collect(t, n, 1, 5*time.Second)
		if string(entries[0].Data) != "block-1" || entries[0].Index != 1 {
			t.Fatalf("node %d got %+v", n.cfg.ID, entries[0])
		}
	}
}

func TestHeightsAreSequential(t *testing.T) {
	_, nodes := group(t, 4)
	const total = 30
	for i := 0; i < total; i++ {
		if err := nodes[i%4].Propose([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		entries := collect(t, n, total, 15*time.Second)
		for i, e := range entries {
			if e.Index != uint64(i+1) {
				t.Fatalf("node %d: height %d delivered at position %d", n.cfg.ID, e.Index, i)
			}
		}
	}
}

func TestAllNodesAgreeOnOrder(t *testing.T) {
	_, nodes := group(t, 4)
	const total = 20
	for i := 0; i < total; i++ {
		if err := nodes[0].Propose([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var ref []string
	for ni, n := range nodes {
		entries := collect(t, n, total, 15*time.Second)
		if ni == 0 {
			for _, e := range entries {
				ref = append(ref, string(e.Data))
			}
			continue
		}
		for i, e := range entries {
			if string(e.Data) != ref[i] {
				t.Fatalf("node %d disagrees at %d", n.cfg.ID, i)
			}
		}
	}
}

func TestProposerRotates(t *testing.T) {
	_, nodes := group(t, 4)
	// proposer(h=1,r=0) = peers[1], h=2 → peers[2], etc.
	if nodes[1].proposerOf(1, 0) != 1 || nodes[1].proposerOf(2, 0) != 2 {
		t.Fatal("round-robin rotation broken")
	}
	// After committing one block the next height has a different proposer.
	if err := nodes[0].Propose([]byte("b")); err != nil {
		t.Fatal(err)
	}
	collect(t, nodes[0], 1, 5*time.Second)
	time.Sleep(20 * time.Millisecond)
	if nodes[0].Height() != 2 {
		t.Fatalf("Height = %d, want 2", nodes[0].Height())
	}
}

func TestRoundChangeOnProposerCrash(t *testing.T) {
	net, nodes := group(t, 4)
	// Height 1's proposer is node 1. Crash it, then propose from node 0:
	// the payload stays in node 0's queue and the stall triggers round
	// changes until a live proposer picks it up.
	net.Crash(1)
	if err := nodes[0].Propose([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{nodes[0], nodes[2], nodes[3]} {
		entries := collect(t, n, 1, 20*time.Second)
		if string(entries[0].Data) != "after-crash" {
			t.Fatalf("got %q", entries[0].Data)
		}
		if entries[0].Term == 0 {
			t.Fatal("commit should record a non-zero round after round change")
		}
	}
}

func TestEmbeddedMetadata(t *testing.T) {
	_, nodes := group(t, 4)
	if err := nodes[0].Propose([]byte("meta")); err != nil {
		t.Fatal(err)
	}
	e := collect(t, nodes[0], 1, 5*time.Second)[0]
	// Round 0, height 1 embedded in the entry itself — IBFT keeps its
	// consensus metadata in the ledger, not in checkpoints.
	if e.Index != 1 || e.Term != 0 {
		t.Fatalf("entry metadata = %+v", e)
	}
}

func TestNoProgressBeyondFaultBudget(t *testing.T) {
	net, nodes := group(t, 4) // f=1
	net.Crash(2)
	net.Crash(3)
	_ = nodes[0].Propose([]byte("doomed"))
	select {
	case e := <-nodes[0].Committed():
		t.Fatalf("committed %q with 2 of 4 crashed", e.Data)
	case <-time.After(500 * time.Millisecond):
	}
}

func TestSevenValidators(t *testing.T) {
	_, nodes := group(t, 7)
	const total = 15
	for i := 0; i < total; i++ {
		if err := nodes[i%7].Propose([]byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		collect(t, n, total, 20*time.Second)
	}
}

// A validator that receives height 2's pre-prepare and prepares before
// height 1's commits — a faster proposer is already there — keeps them and
// decides height 2 in round 0 once it has decided height 1. Validators 0–2
// are scripted here, their messages sent into validator 3's inbox in order.
func TestEarlyNextHeightMessagesAreKept(t *testing.T) {
	net := cluster.NewNetwork(cluster.ZeroLink{})
	peers := []cluster.NodeID{0, 1, 2, 3}
	eps := make([]*cluster.Endpoint, 3)
	for i := range eps {
		eps[i] = net.Register(peers[i], 8192)
	}
	n := New(Config{ID: 3, Peers: peers, Endpoint: net.Register(3, 8192)})
	t.Cleanup(func() {
		n.Stop()
		net.Close()
	})
	send := func(from int, msg cluster.Message) {
		t.Helper()
		if err := eps[from].Send(3, msg); err != nil {
			t.Fatal(err)
		}
	}
	blocks := [][]byte{nil, []byte("block-1"), []byte("block-2")}
	digest := func(h uint64) cryptoutil.Hash { return cryptoutil.HashBytes(blocks[h]) }
	for h := uint64(1); h <= 2; h++ {
		proposer := int(n.proposerOf(h, 0))
		send(proposer, preprepare{Height: h, Round: 0, Digest: digest(h), Data: blocks[h]})
		for i := 0; i < 3; i++ {
			if i != proposer {
				send(i, prepare{Height: h, Round: 0, Digest: digest(h)})
			}
		}
	}
	for h := uint64(1); h <= 2; h++ {
		for i := 0; i < 3; i++ {
			send(i, commitMsg{Height: h, Round: 0, Digest: digest(h)})
		}
	}
	for h, e := range collect(t, n, 2, 2*time.Second) {
		if e.Index != uint64(h+1) || e.Term != 0 || string(e.Data) != string(blocks[h+1]) {
			t.Fatalf("delivery %d = height %d round %d %q, want height %d round 0 %q", h, e.Index, e.Term, e.Data, h+1, blocks[h+1])
		}
	}
}

// An entry carries a whole block's wire bytes (a Quorum block), not a
// handle, so every message that carries one counts its bytes in its Size.
func TestMessageSizeCountsEntryBytes(t *testing.T) {
	entry := make([]byte, consensus.Header+2522)
	for _, c := range []struct {
		msg     cluster.Message
		payload int
	}{
		{forward{Data: entry}, len(entry)},
		{preprepare{Data: entry}, len(entry)},
	} {
		if got := c.msg.Size(); got < c.payload {
			t.Errorf("%T: Size %d, below the %d payload bytes it carries", c.msg, got, c.payload)
		}
	}
}
