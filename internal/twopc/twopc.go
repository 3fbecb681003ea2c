// Package twopc implements two-phase commit for cross-shard transactions —
// the atomicity mechanism of the paper's sharding dimension. Two
// coordinator flavours exist:
//
//   - Coordinator: the database flavour — a single trusted coordinator
//     (TiDB, Spanner). Fast, but a blocking single point of failure.
//   - ReplicatedCoordinator: the blockchain flavour — the coordinator's
//     decisions are themselves sequenced through a BFT consensus group
//     before taking effect (AHL's "2PC state machine in a BFT shard"),
//     trading latency for a coordinator that cannot equivocate or block.
package twopc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dichotomy/internal/consensus"
)

// Vote is a participant's answer to prepare.
type Vote int

const (
	// VoteCommit means the participant locked its resources.
	VoteCommit Vote = iota
	// VoteAbort means the participant rejected the transaction.
	VoteAbort
)

// Participant is one shard's involvement in a distributed transaction.
type Participant interface {
	// Prepare locks the transaction's resources and votes.
	Prepare(txID string) (Vote, error)
	// Commit makes the prepared transaction durable. Called only after
	// every participant voted commit.
	Commit(txID string) error
	// Abort releases the prepared resources.
	Abort(txID string) error
}

// ErrAborted is returned by Run when any participant voted abort.
var ErrAborted = errors.New("twopc: transaction aborted")

// Decision is the coordinator's verdict for one transaction.
type Decision int

const (
	// DecisionCommit commits the transaction on all shards.
	DecisionCommit Decision = iota
	// DecisionAbort rolls it back.
	DecisionAbort
)

// Coordinator is the trusted single-node coordinator used by databases.
type Coordinator struct {
	mu       sync.Mutex
	outcomes map[string]Decision
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{outcomes: make(map[string]Decision)}
}

// Run drives txID through both phases across the participants. The first
// abort vote (or error) aborts everywhere. Prepares fan out concurrently —
// the round-trip structure whose cost grows with the number of shards
// touched (Fig 10).
func (c *Coordinator) Run(txID string, parts []Participant) error {
	votes := make([]Vote, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p Participant) {
			defer wg.Done()
			votes[i], errs[i] = p.Prepare(txID)
		}(i, p)
	}
	wg.Wait()
	decision := DecisionCommit
	for i := range parts {
		if errs[i] != nil || votes[i] == VoteAbort {
			decision = DecisionAbort
			break
		}
	}
	c.mu.Lock()
	c.outcomes[txID] = decision
	c.mu.Unlock()
	return finish(txID, decision, parts)
}

// Outcome reports the recorded decision for txID.
func (c *Coordinator) Outcome(txID string) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.outcomes[txID]
	return d, ok
}

func finish(txID string, d Decision, parts []Participant) error {
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p Participant) {
			defer wg.Done()
			if d == DecisionCommit {
				_ = p.Commit(txID)
			} else {
				_ = p.Abort(txID)
			}
		}(p)
	}
	wg.Wait()
	if d == DecisionAbort {
		return ErrAborted
	}
	return nil
}

// ReplicatedCoordinator sequences every decision through a consensus node
// (PBFT in AHL) before applying it, so no single machine can block or
// equivocate on an outcome. The consensus round inserted between voting
// and completion is the "considerable overhead to the 2PC process" the
// paper attributes to Byzantine-safe coordination.
type ReplicatedCoordinator struct {
	node consensus.Node

	mu      sync.Mutex
	waiters map[string]chan Decision
	stopCh  chan struct{}
	once    sync.Once
}

// NewReplicatedCoordinator wraps a running consensus node. The caller owns
// the node's lifecycle; Close only detaches the decision pump.
func NewReplicatedCoordinator(node consensus.Node) *ReplicatedCoordinator {
	rc := &ReplicatedCoordinator{
		node:    node,
		waiters: make(map[string]chan Decision),
		stopCh:  make(chan struct{}),
	}
	go rc.pump()
	return rc
}

// pump applies sequenced decisions to their waiters.
func (rc *ReplicatedCoordinator) pump() {
	for {
		select {
		case <-rc.stopCh:
			return
		case e, ok := <-rc.node.Committed():
			if !ok {
				return
			}
			if len(e.Data) < 2 {
				continue // not a decision: e.g. a new leader's empty entry
			}
			d := Decision(e.Data[0])
			txID := string(e.Data[1:])
			rc.mu.Lock()
			if ch, ok := rc.waiters[txID]; ok {
				delete(rc.waiters, txID)
				ch <- d
			}
			rc.mu.Unlock()
		}
	}
}

// Close detaches the decision pump.
func (rc *ReplicatedCoordinator) Close() {
	rc.once.Do(func() { close(rc.stopCh) })
}

// Run drives txID through 2PC with the decision round replicated.
func (rc *ReplicatedCoordinator) Run(txID string, parts []Participant) error {
	votes := make([]Vote, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p Participant) {
			defer wg.Done()
			votes[i], errs[i] = p.Prepare(txID)
		}(i, p)
	}
	wg.Wait()
	decision := DecisionCommit
	for i := range parts {
		if errs[i] != nil || votes[i] == VoteAbort {
			decision = DecisionAbort
			break
		}
	}
	// Replicate the decision before telling any participant: once
	// sequenced, the outcome survives coordinator failure.
	ch := make(chan Decision, 1)
	rc.mu.Lock()
	rc.waiters[txID] = ch
	rc.mu.Unlock()
	payload := append([]byte{byte(decision)}, txID...)
	if err := rc.node.Propose(payload); err != nil {
		rc.mu.Lock()
		delete(rc.waiters, txID)
		rc.mu.Unlock()
		return fmt.Errorf("twopc: replicate decision: %w", err)
	}
	select {
	case sequenced := <-ch:
		return finish(txID, sequenced, parts)
	case <-time.After(30 * time.Second):
		rc.mu.Lock()
		delete(rc.waiters, txID)
		rc.mu.Unlock()
		return fmt.Errorf("twopc: decision for %s never sequenced", txID)
	}
}
