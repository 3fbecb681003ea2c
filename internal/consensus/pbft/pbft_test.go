package pbft

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
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

// collect reads entries, skipping view-change no-ops (empty Data).
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
			if len(e.Data) == 0 {
				continue
			}
			out = append(out, e)
		case <-deadline:
			t.Fatalf("timeout with %d/%d entries", len(out), count)
		}
	}
	return out
}

func TestFToleranceTable(t *testing.T) {
	for n, want := range map[int]int{1: 0, 3: 0, 4: 1, 6: 1, 7: 2, 10: 3, 13: 4} {
		if got := F(n); got != want {
			t.Errorf("F(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCommitsOnPrimary(t *testing.T) {
	_, nodes := group(t, 4)
	primary := nodes[0] // view 0 → peers[0]
	if !primary.IsLeader() {
		t.Fatal("node 0 should be the view-0 primary")
	}
	if err := primary.Propose([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		entries := collect(t, n, 1, 5*time.Second)
		if string(entries[0].Data) != "hello" {
			t.Fatalf("node %d got %q", n.cfg.ID, entries[0].Data)
		}
	}
}

func TestOrderingIsIdenticalEverywhere(t *testing.T) {
	_, nodes := group(t, 4)
	const total = 40
	for i := 0; i < total; i++ {
		if err := nodes[0].Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var reference []string
	for ni, n := range nodes {
		entries := collect(t, n, total, 10*time.Second)
		if ni == 0 {
			for _, e := range entries {
				reference = append(reference, string(e.Data))
			}
			continue
		}
		for i, e := range entries {
			if string(e.Data) != reference[i] {
				t.Fatalf("node %d disagrees at %d: %q vs %q", n.cfg.ID, i, e.Data, reference[i])
			}
		}
	}
}

func TestForwardedProposalCommits(t *testing.T) {
	_, nodes := group(t, 4)
	// Propose through a backup; it forwards to the primary.
	if err := nodes[2].Propose([]byte("via-backup")); err != nil {
		t.Fatal(err)
	}
	entries := collect(t, nodes[1], 1, 5*time.Second)
	if string(entries[0].Data) != "via-backup" {
		t.Fatalf("got %q", entries[0].Data)
	}
}

func TestToleratesOneCrashedBackup(t *testing.T) {
	net, nodes := group(t, 4)
	net.Crash(3) // a backup, not the primary
	const total = 10
	for i := 0; i < total; i++ {
		if err := nodes[0].Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes[:3] {
		collect(t, n, total, 10*time.Second)
	}
}

func TestViewChangeOnPrimaryCrash(t *testing.T) {
	net, nodes := group(t, 4)
	// Commit one entry under the original primary.
	if err := nodes[0].Propose([]byte("first")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		collect(t, n, 1, 5*time.Second)
	}
	net.Crash(0)
	// Proposing through a backup forwards to the dead primary; the
	// outstanding work triggers a view change and node 1 takes over.
	deadline := time.Now().Add(10 * time.Second)
	proposed := false
	for !proposed && time.Now().Before(deadline) {
		if err := nodes[1].Propose([]byte("second")); err == nil {
			proposed = true
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !proposed {
		t.Fatal("could not propose after primary crash")
	}
	// The replica retransmits the forwarded payload after the view change;
	// wait for it to commit.
	got := make(chan consensus.Entry, 1)
	go func() {
		for e := range nodes[1].Committed() {
			if string(e.Data) == "second" {
				got <- e
				return
			}
		}
	}()
	select {
	case <-got:
		if v := nodes[1].View(); v == 0 {
			t.Fatal("committed without a view change?")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("no commit after view change")
	}
}

func TestNoProgressWithTwoFaultsOfFour(t *testing.T) {
	net, nodes := group(t, 4) // f=1: two crashes exceed tolerance
	net.Crash(2)
	net.Crash(3)
	_ = nodes[0].Propose([]byte("doomed"))
	select {
	case e := <-nodes[0].Committed():
		if len(e.Data) != 0 {
			t.Fatalf("committed %q despite 2 faults with f=1", e.Data)
		}
	case <-time.After(500 * time.Millisecond):
	}
}

func TestSevenNodeGroup(t *testing.T) {
	_, nodes := group(t, 7) // f=2
	const total = 20
	for i := 0; i < total; i++ {
		if err := nodes[0].Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		collect(t, n, total, 10*time.Second)
	}
}

// TestLivenessUnderSustainedDrops runs the group under a lossy network
// for the whole proposal stream, then lifts the faults and requires
// every replica to deliver everything. This exercises the within-view
// retransmission path (dropped prepares/commits), the newView re-send
// to stragglers, and the fetch/state-transfer path for replicas whose
// pre-prepare was lost while the rest of the group moved on.
func TestLivenessUnderSustainedDrops(t *testing.T) {
	net, nodes := group(t, 4)
	drops := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	net.SetFaults(func(from, to cluster.NodeID) (bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		return drops.Float64() < 0.15, 0
	})
	const total = 30
	for i := 0; i < total; i++ {
		// Propose through rotating replicas so forwards are lossy too.
		if err := nodes[i%4].Propose([]byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Give the lossy phase time to strand at least some instances, then
	// heal the network; retransmission and fetch must finish the rest.
	time.Sleep(200 * time.Millisecond)
	net.SetFaults(nil)
	var reference []string
	for ni, n := range nodes {
		entries := collect(t, n, total, 30*time.Second)
		if ni == 0 {
			for _, e := range entries {
				reference = append(reference, string(e.Data))
			}
			continue
		}
		for i, e := range entries {
			if string(e.Data) != reference[i] {
				t.Fatalf("node %d disagrees at %d: %q vs %q", n.cfg.ID, i, e.Data, reference[i])
			}
		}
	}
}

// An entry carries a whole transaction's wire bytes (BigchainDB's), not a
// handle, so every message that carries one counts its bytes in its Size.
func TestMessageSizeCountsEntryBytes(t *testing.T) {
	entry := make([]byte, 8+2522)
	for _, c := range []struct {
		msg     cluster.Message
		payload int
	}{
		{forward{Data: entry}, len(entry)},
		{prePrepare{Data: entry}, len(entry)},
		{fetched{Data: entry}, len(entry)},
		{viewChange{Prepared: []preparedProof{{Data: entry}}}, len(entry)},
		{newView{PrePrepares: []prePrepare{{Data: entry}, {Data: entry}}}, 2 * len(entry)},
	} {
		if got := c.msg.Size(); got < c.payload {
			t.Errorf("%T: Size %d, below the %d payload bytes it carries", c.msg, got, c.payload)
		}
	}
}
