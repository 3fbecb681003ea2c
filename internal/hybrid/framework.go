// Package hybrid implements the paper's Section 5.6 contribution: a
// back-of-the-envelope framework that predicts the throughput class of a
// hybrid blockchain–database system from two design choices — the
// replication model (transaction-based vs storage-based) and the failure
// model (CFT vs BFT), with the replication approach (consensus vs shared
// log) as a refinement. The package also contains two runnable
// mini-prototypes (Veritas-like and BigchainDB-like) used to validate the
// prediction ordering experimentally. Their replicas' lifecycle — open,
// crash, rebuild, catch up, rejoin, close — is system.Replica's,
// shared with Fabric and Quorum, and so is the landing of an ordered batch
// (Veritas's effects) or transaction (BigchainDB's): Replica.Write stages
// its writes and Replica.Commit applies them, handing a Veritas verifier's
// root maintainer the delta. A verifier rejoins by resubscribing to the
// shared log above its checkpoint, a validator by replaying a healthy
// peer's applied history and skipping what that covered.
package hybrid

import (
	"fmt"
	"sort"
)

// ReplicationModel is the paper's first deciding factor.
type ReplicationModel int

const (
	// TxnBased replicates whole transactions; execution is replayed on
	// every replica and ordered before (or while) executing. Blockchains
	// and out-of-the-database blockchains sit here.
	TxnBased ReplicationModel = iota
	// StorageBased replicates storage operations under the transaction
	// manager; concurrency lives above replication. Databases and
	// out-of-the-blockchain databases sit here.
	StorageBased
)

// String names the model.
func (m ReplicationModel) String() string {
	if m == TxnBased {
		return "txn-based"
	}
	return "storage-based"
}

// FailureModel is the paper's second deciding factor.
type FailureModel int

const (
	// CFT tolerates crashes only (Raft, Paxos, Kafka).
	CFT FailureModel = iota
	// BFT tolerates Byzantine nodes (PBFT, PoW, Tendermint).
	BFT
)

// String names the model.
func (m FailureModel) String() string {
	if m == CFT {
		return "cft"
	}
	return "bft"
}

// ReplicationApproach refines the prediction: shared logs decouple
// ordering from state replication and outrun consensus at equal safety.
type ReplicationApproach int

const (
	// Consensus runs a protocol among the replicas themselves.
	Consensus ReplicationApproach = iota
	// SharedLog delegates ordering to an external log service.
	SharedLog
)

// String names the approach.
func (a ReplicationApproach) String() string {
	if a == Consensus {
		return "consensus"
	}
	return "shared-log"
}

// Design is one point in the hybrid design space.
type Design struct {
	Name        string
	Replication ReplicationModel
	Failure     FailureModel
	Approach    ReplicationApproach
}

// Class is the predicted throughput class.
type Class int

const (
	// Low is the PoW / heavyweight-BFT regime (≲ 1k tps in the paper's
	// reported numbers).
	Low Class = iota
	// Medium is constrained by either transaction-based replication or
	// BFT quorums (1k–10k tps reported).
	Medium
	// High is storage-based replication on CFT substrates (≳ 10k tps).
	High
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	default:
		return "high"
	}
}

// Predict applies the framework: the replication model is the deciding
// factor (storage-based exposes more concurrency), the failure model is
// second (CFT quorums are cheaper than BFT), and a CFT shared log earns
// the top class because ordering is offloaded entirely.
func Predict(d Design) Class {
	switch {
	case d.Replication == StorageBased && d.Failure == CFT:
		return High
	case d.Replication == StorageBased && d.Failure == BFT:
		return Medium
	case d.Replication == TxnBased && d.Failure == CFT:
		return Medium
	default: // TxnBased + BFT
		return Low
	}
}

// Score is a finer-grained ranking used to order systems inside a class:
// higher is faster. Storage replication dominates, then CFT, then the
// shared-log refinement.
func Score(d Design) int {
	s := 0
	if d.Replication == StorageBased {
		s += 4
	}
	if d.Failure == CFT {
		s += 2
	}
	if d.Approach == SharedLog {
		s++
	}
	return s
}

// Catalog lists the six hybrid systems of the paper's Fig 15 with their
// design choices (Table 2) and the throughput each reports in its own
// publication, in tps. The framework is validated by checking the
// prediction order against the reported order.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{Design{"Veritas", StorageBased, CFT, SharedLog}, 29_000},
		{Design{"FalconDB", StorageBased, BFT, Consensus}, 2_000},
		{Design{"BlockchainDB", StorageBased, BFT, Consensus}, 100},
		{Design{"ChainifyDB", TxnBased, CFT, SharedLog}, 6_100},
		{Design{"BRD", TxnBased, CFT, SharedLog}, 2_500},
		{Design{"BigchainDB", TxnBased, BFT, Consensus}, 1_000},
	}
}

// CatalogEntry pairs a design with its publicly reported throughput.
type CatalogEntry struct {
	Design      Design
	ReportedTPS float64
}

// RankByPrediction orders catalog entries by the framework's score,
// descending; ties keep catalog order.
func RankByPrediction(entries []CatalogEntry) []CatalogEntry {
	out := append([]CatalogEntry(nil), entries...)
	sort.SliceStable(out, func(i, j int) bool {
		return Score(out[i].Design) > Score(out[j].Design)
	})
	return out
}

// Describe renders a design point for reports.
func Describe(d Design) string {
	return fmt.Sprintf("%s [replication=%s failure=%s approach=%s] → predicted %s",
		d.Name, d.Replication, d.Failure, d.Approach, Predict(d))
}
