package twopc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/pbft"
	"dichotomy/internal/system"
)

// fakePart is a scriptable participant.
type fakePart struct {
	mu       sync.Mutex
	vote     Vote
	prepErr  error
	prepared map[string]bool
	commits  []string
	aborts   []string
}

func newFakePart(v Vote) *fakePart {
	return &fakePart{vote: v, prepared: make(map[string]bool)}
}

func (p *fakePart) Prepare(txID string) (Vote, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.prepErr != nil {
		return VoteAbort, p.prepErr
	}
	p.prepared[txID] = true
	return p.vote, nil
}

func (p *fakePart) Commit(txID string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.prepared[txID] {
		return fmt.Errorf("commit before prepare for %s", txID)
	}
	p.commits = append(p.commits, txID)
	return nil
}

func (p *fakePart) Abort(txID string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aborts = append(p.aborts, txID)
	return nil
}

func (p *fakePart) committed() int { p.mu.Lock(); defer p.mu.Unlock(); return len(p.commits) }
func (p *fakePart) aborted() int   { p.mu.Lock(); defer p.mu.Unlock(); return len(p.aborts) }

func TestAllVoteCommit(t *testing.T) {
	c := NewCoordinator()
	parts := []Participant{newFakePart(VoteCommit), newFakePart(VoteCommit)}
	if err := c.Run("tx1", parts); err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if p.(*fakePart).committed() != 1 {
			t.Fatalf("participant %d did not commit", i)
		}
	}
	if d, ok := c.Outcome("tx1"); !ok || d != DecisionCommit {
		t.Fatal("outcome not recorded")
	}
}

func TestOneAbortVoteAbortsAll(t *testing.T) {
	c := NewCoordinator()
	good := newFakePart(VoteCommit)
	bad := newFakePart(VoteAbort)
	err := c.Run("tx1", []Participant{good, bad})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if good.committed() != 0 || good.aborted() != 1 {
		t.Fatal("commit-voting participant must still abort")
	}
	if d, _ := c.Outcome("tx1"); d != DecisionAbort {
		t.Fatal("outcome should be abort")
	}
}

func TestPrepareErrorAborts(t *testing.T) {
	c := NewCoordinator()
	broken := newFakePart(VoteCommit)
	broken.prepErr = errors.New("disk on fire")
	good := newFakePart(VoteCommit)
	if err := c.Run("tx1", []Participant{good, broken}); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	if good.committed() != 0 {
		t.Fatal("committed despite peer failure")
	}
}

func TestManyTransactionsIndependent(t *testing.T) {
	c := NewCoordinator()
	p := newFakePart(VoteCommit)
	for i := 0; i < 50; i++ {
		if err := c.Run(fmt.Sprintf("tx%d", i), []Participant{p}); err != nil {
			t.Fatal(err)
		}
	}
	if p.committed() != 50 {
		t.Fatalf("committed %d, want 50", p.committed())
	}
}

// committee returns the BFT flavour over a four-member PBFT group whose
// Apply returns the sequenced decision — the committee AHL runs.
func committee(t *testing.T) *Coordinator {
	t.Helper()
	net := cluster.NewNetwork(cluster.ZeroLink{})
	g := system.NewGroup(system.GroupConfig[struct{}]{
		Label: "test: committee",
		Net:   net,
		Peers: []cluster.NodeID{0, 1, 2, 3},
		Member: func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint, _ bool) system.Member {
			return pbft.New(pbft.Config{ID: id, Peers: peers, Endpoint: ep})
		},
		New: func() *struct{} { return &struct{}{} },
		Apply: func(_ *struct{}, e consensus.Entry) system.Result {
			return system.Result{Committed: Decision(e.Data[0]) == DecisionCommit}
		},
		Leaderless: "test: committee unavailable",
		Timeout:    "test: committee timeout",
	})
	t.Cleanup(func() {
		g.Close()
		net.Close()
	})
	return NewBFTCoordinator(func(txID string, d Decision) (Decision, error) {
		cmd := append(make([]byte, consensus.Header), byte(d))
		r := g.Propose(append(cmd, txID...))
		if !r.Committed {
			return DecisionAbort, r.Err
		}
		return DecisionCommit, nil
	})
}

func TestReplicatedCoordinatorCommit(t *testing.T) {
	rc := committee(t)
	parts := []Participant{newFakePart(VoteCommit), newFakePart(VoteCommit)}
	done := make(chan error, 1)
	go func() { done <- rc.Run("xtx-1", parts) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("replicated 2PC never finished")
	}
	for i, p := range parts {
		if p.(*fakePart).committed() != 1 {
			t.Fatalf("participant %d missing commit", i)
		}
	}
}

func TestReplicatedCoordinatorAbort(t *testing.T) {
	rc := committee(t)
	parts := []Participant{newFakePart(VoteCommit), newFakePart(VoteAbort)}
	if err := rc.Run("xtx-2", parts); !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if parts[0].(*fakePart).aborted() != 1 {
		t.Fatal("abort not propagated")
	}
}
