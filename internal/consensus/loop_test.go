package consensus_test

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/ibft"
	"dichotomy/internal/consensus/pbft"
	"dichotomy/internal/consensus/raft"
)

// protocol is one row of the suite: a protocol the shared loop drives.
type protocol struct {
	name  string
	start func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node
	// epoch reads what an election, a view change or a round change moves:
	// raft's Term, PBFT's View, IBFT's Round. An entry commits carrying the
	// epoch it was decided in as its Term.
	epoch func(consensus.Node) uint64
}

var protocols = []protocol{
	{
		name: "raft",
		start: func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node {
			return raft.New(raft.Config{ID: id, Peers: peers, Endpoint: ep})
		},
		epoch: func(n consensus.Node) uint64 { return n.(*raft.Node).Term() },
	},
	{
		name: "pbft",
		start: func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node {
			return pbft.New(pbft.Config{ID: id, Peers: peers, Endpoint: ep})
		},
		epoch: func(n consensus.Node) uint64 { return n.(*pbft.Node).View() },
	},
	{
		name: "ibft",
		start: func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node {
			return ibft.New(ibft.Config{ID: id, Peers: peers, Endpoint: ep})
		},
		epoch: func(n consensus.Node) uint64 { return n.(*ibft.Node).Round() },
	},
}

// group is four replicas of one protocol on their own network. Every
// stream but the leader's is read.
type group struct {
	net     *cluster.Network
	nodes   []consensus.Node
	lead    consensus.Node
	leadID  cluster.NodeID
	next    uint64         // proposals made so far; each carries its number
	got     []atomic.Int64 // proposals committed, per replica; the leader's stays 0
	moved   atomic.Bool    // some follower committed an entry of a later epoch
	readers sync.WaitGroup
}

// fill starts a group and proposes to its leader until the leader's unread
// stream holds CommitBuffer entries and more wait behind it.
func fill(t *testing.T, p protocol) *group {
	t.Helper()
	const size = 4
	g := &group{net: cluster.NewNetwork(cluster.ZeroLink{}), got: make([]atomic.Int64, size)}
	peers := make([]cluster.NodeID, size)
	for i := range peers {
		peers[i] = cluster.NodeID(i)
	}
	for _, id := range peers {
		g.nodes = append(g.nodes, p.start(id, peers, g.net.Register(id, 8192)))
	}
	t.Cleanup(func() {
		for _, n := range g.nodes {
			n.Stop()
		}
		g.net.Close()
		g.readers.Wait()
	})
	for deadline := time.Now().Add(5 * time.Second); g.lead == nil; time.Sleep(time.Millisecond) {
		for i, n := range g.nodes {
			if n.IsLeader() {
				g.lead, g.leadID = n, cluster.NodeID(i)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
	}
	for i, n := range g.nodes {
		if n == g.lead {
			continue
		}
		g.readers.Add(1)
		go func() {
			defer g.readers.Done()
			first, seen := uint64(0), false
			for e := range n.Committed() {
				if e.Data == nil {
					continue // a new leader's or view's no-op
				}
				if seen && e.Term != first {
					g.moved.Store(true)
				}
				first, seen = e.Term, true
				g.got[i].Add(1)
			}
		}()
	}
	g.propose(t, consensus.CommitBuffer+64)
	for deadline := time.Now().Add(10 * time.Second); len(g.lead.Committed()) < consensus.CommitBuffer; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the leader's stream holds %d entries, want %d", len(g.lead.Committed()), consensus.CommitBuffer)
		}
	}
	return g
}

// propose offers count entries to the leader, keeping at most a window of
// them uncommitted at the slowest follower. Each Propose must return within
// a second and each entry must commit everywhere within ten.
func (g *group) propose(t *testing.T, count int) {
	t.Helper()
	const window = 64
	for range count {
		deadline := time.Now().Add(10 * time.Second)
		for g.next-g.slowest() >= window {
			if time.Now().After(deadline) {
				t.Fatalf("proposal %d: followers committed only %d", g.next, g.slowest())
			}
			time.Sleep(100 * time.Microsecond)
		}
		g.next++
		data := binary.BigEndian.AppendUint64(nil, g.next)
		done := make(chan error, 1)
		go func() { done <- g.lead.Propose(data) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("proposal %d: %v", g.next, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("proposal %d: Propose did not return within 1s", g.next)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); g.slowest() < g.next; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("followers committed only %d of %d proposals", g.slowest(), g.next)
		}
	}
}

// slowest is the fewest proposals a follower has committed.
func (g *group) slowest() uint64 {
	least := int64(-1)
	for i := range g.nodes {
		if c := g.got[i].Load(); cluster.NodeID(i) != g.leadID && (least < 0 || c < least) {
			least = c
		}
	}
	return uint64(least)
}

// With the leader's stream full and unread, the replica and its group work
// on: (b) IsLeader and the protocol's own readers answer at once, since a
// reader may be that stream's consumer; (a) for a second proposals return,
// the followers commit them, and nobody holds an election, a view change
// or a round change; (c) Stop returns at once and closes the stream, and
// every goroutine the group started exits.
func TestLoopUnreadLeaderStream(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			g := fill(t, p)
			epoch := p.epoch(g.lead)
			t.Run("readers", func(t *testing.T) {
				type read struct {
					leading bool
					leader  cluster.NodeID
					epoch   uint64
				}
				answered := make(chan read, 1)
				go func() {
					r := read{leading: g.lead.IsLeader(), leader: g.leadID, epoch: p.epoch(g.lead)}
					if l, ok := g.lead.(interface{ Leader() cluster.NodeID }); ok {
						r.leader = l.Leader()
					}
					answered <- r
				}()
				select {
				case r := <-answered:
					if !r.leading || r.leader != g.leadID || r.epoch != epoch {
						t.Fatalf("IsLeader %v, Leader %d, epoch %d; want node %d leading in epoch %d",
							r.leading, r.leader, r.epoch, g.leadID, epoch)
					}
				case <-time.After(100 * time.Millisecond):
					t.Fatal("IsLeader and the protocol's readers waited on the commit stream")
				}
			})
			t.Run("live", func(t *testing.T) {
				from := g.next
				for end := time.Now().Add(time.Second); time.Now().Before(end); {
					g.propose(t, 16)
				}
				if g.next == from {
					t.Fatal("no proposal was made")
				}
				for i, n := range g.nodes {
					if got := p.epoch(n); n != g.lead && got != epoch {
						t.Errorf("follower %d moved from epoch %d to %d", i, epoch, got)
					}
				}
				if g.moved.Load() {
					t.Error("a follower committed entries of two epochs")
				}
			})
			stopped := make(chan struct{})
			go func() {
				g.lead.Stop()
				for range g.lead.Committed() {
				}
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(time.Second):
				t.Fatal("Stop with a full stream did not return and close it within 1s")
			}
			for _, n := range g.nodes {
				n.Stop()
			}
			g.net.Close()
			g.readers.Wait()
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Stop, %d before the group started", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// (d) A Propose racing Stop on a one-member group returns ErrStopped once
// the stop lands, and never sends on the closed commit channel: a one-member
// raft group commits inside Propose, after its loop may have exited.
func TestLoopProposeRacingStop(t *testing.T) {
	const members = 100
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			net := cluster.NewNetwork(cluster.ZeroLink{})
			defer net.Close()
			nodes := make([]consensus.Node, members)
			for i := range nodes {
				id := cluster.NodeID(i)
				nodes[i] = p.start(id, []cluster.NodeID{id}, net.Register(id, 64))
			}
			defer func() {
				for _, n := range nodes {
					n.Stop()
				}
			}()
			for i, n := range nodes {
				for deadline := time.Now().Add(5 * time.Second); !n.IsLeader(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("member %d never led its group", i)
					}
				}
				refused := make(chan error, 1)
				go func() {
					var err error
					for seq := uint64(0); err == nil; seq++ {
						err = n.Propose(binary.BigEndian.AppendUint64(nil, seq))
					}
					refused <- err
				}()
				time.Sleep(200 * time.Microsecond)
				n.Stop()
				if err := <-refused; !errors.Is(err, consensus.ErrStopped) {
					t.Fatalf("member %d: Propose after Stop returned %v, want ErrStopped", i, err)
				}
				for range n.Committed() {
				}
			}
		})
	}
}
