package quorum

import (
	"testing"

	"dichotomy/internal/txn"
)

// TestRefusedProposalDropsItsBoxEntry: when consensus refuses a block the
// proposer has already boxed, the batch goes back on the queue and the
// box entry — which no node will ever take — is released. Before the fix
// every refused proposal leaked one block.
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
	if got := nw.box.Len(); got != 0 {
		t.Fatalf("%d box entries live before the refused proposal", got)
	}

	tx := mustTx(t, client, "put", "beta", "2")
	n.proposeBatch([]*txn.Tx{tx})

	if got := nw.box.Len(); got != 0 {
		t.Fatalf("refused proposal left %d box entries live", got)
	}
	n.pendingMu.Lock()
	defer n.pendingMu.Unlock()
	if len(n.pending) != 1 || n.pending[0] != tx {
		t.Fatalf("refused batch not requeued: pending = %v", n.pending)
	}
}
