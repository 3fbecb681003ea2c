// Package twopc implements two-phase commit for cross-shard transactions —
// the atomicity mechanism of the paper's sharding dimension. Its two
// coordinator flavours are one Coordinator, whose Run differs only in how
// the decision is recorded:
//
//   - NewCoordinator: the database flavour — a single trusted coordinator
//     (TiDB, Spanner) keeps it in its own memory. Fast, but a blocking
//     single point of failure.
//   - NewBFTCoordinator: the blockchain flavour — the decision is sequenced
//     through a BFT committee before any participant hears it (AHL's "2PC
//     state machine in a BFT shard", a system.Group over PBFT), trading
//     latency for a coordinator that cannot equivocate or block.
package twopc

import (
	"errors"
	"fmt"
	"sync"
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

// Coordinator drives transactions through both phases.
type Coordinator struct {
	// record makes txID's decision survive the coordinator and returns it
	// as recorded.
	record func(txID string, d Decision) (Decision, error)

	mu       sync.Mutex
	outcomes map[string]Decision
}

// NewCoordinator returns the trusted single-node coordinator databases
// use: it records each decision in its own memory, where Outcome reads it.
func NewCoordinator() *Coordinator {
	c := &Coordinator{outcomes: make(map[string]Decision)}
	c.record = func(txID string, d Decision) (Decision, error) {
		c.mu.Lock()
		c.outcomes[txID] = d
		c.mu.Unlock()
		return d, nil
	}
	return c
}

// NewBFTCoordinator returns a coordinator that records each decision by
// sequencing it through a replicated committee: sequence returns the
// decision as the committee's log holds it, or the error that kept it out.
// No single machine can then block or equivocate on an outcome; the
// consensus round inserted between voting and completion is the
// "considerable overhead to the 2PC process" the paper attributes to
// Byzantine-safe coordination. The committee's log is the record, so
// Outcome reports nothing.
func NewBFTCoordinator(sequence func(txID string, d Decision) (Decision, error)) *Coordinator {
	return &Coordinator{record: sequence}
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
	// Record the decision before telling any participant: once the
	// committee has sequenced it, the outcome survives coordinator failure.
	decision, err := c.record(txID, decision)
	if err != nil {
		return fmt.Errorf("twopc: record decision for %s: %w", txID, err)
	}
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
