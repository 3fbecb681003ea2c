package quorum

import (
	"testing"

	"dichotomy/internal/txn"
)

// TestRefusedProposalDropsItsBoxEntry: when consensus refuses a block the
// proposer has already issued, the batch goes back on the queue and the
// block — in no node's log — leaves the in-flight table.
func TestRefusedProposalDropsItsBoxEntry(t *testing.T) {
	nw, client := network(t, Config{Nodes: 1})
	if r := nw.Execute(mustTx(t, client, "put", "alpha", "1")); !r.Committed {
		t.Fatalf("warm-up put: %+v", r)
	}
	n := nw.nodes[0]
	// Halt the node's own loops so nothing else proposes, then its
	// consensus member, so the next Propose is refused.
	n.Stop()
	n.cons.Stop()
	if inFlight(nw) {
		t.Fatal("a block in flight before the refused proposal")
	}

	tx := mustTx(t, client, "put", "beta", "2")
	n.proposeBatch([]*txn.Tx{tx})

	if inFlight(nw) {
		t.Fatal("refused proposal left its block in flight")
	}
	n.pendingMu.Lock()
	defer n.pendingMu.Unlock()
	if len(n.pending) != 1 || n.pending[0] != tx {
		t.Fatalf("refused batch not requeued: pending = %v", n.pending)
	}
}
