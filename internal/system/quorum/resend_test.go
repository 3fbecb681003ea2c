package quorum

import (
	"context"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/contract"
	"dichotomy/internal/txn"
)

// A block the leader accepted and then lost in a leader change is proposed
// again by the Resend lap: it commits once, a lap or two after the new
// leader takes over. (Before the lap the block was gone, and its client
// waited out the 60 s commit timeout.)
func TestBlockLostToLeaderChangeIsProposedAgain(t *testing.T) {
	nw, client := network(t, Config{Nodes: 4})
	sign := func(method string, args ...string) *txn.Tx {
		raw := make([][]byte, len(args))
		for i, a := range args {
			raw[i] = []byte(a)
		}
		tx, err := txn.Sign(client, txn.Invocation{Contract: contract.SmallbankName, Method: method, Args: raw})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	if r := nw.Execute(sign("create_account", "acct", string(contract.EncodeInt64(100)), string(contract.EncodeInt64(0)))); !r.Committed {
		t.Fatalf("create_account: %+v", r)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("no block in flight", func() bool { return !inFlight(nw) })
	old := nw.Leader()
	if old < 0 {
		t.Fatal("no leader")
	}
	// Cut the leader off: what it appends stays in its own log, and the
	// others elect a new leader whose log overwrites it.
	oldID := nw.nodes[old].id
	nw.SetFaults(func(from, _ cluster.NodeID) (bool, time.Duration) { return from == oldID, 0 })
	h, err := nw.Submit(context.Background(), sign("deposit_checking", "acct", string(contract.EncodeInt64(5))))
	if err != nil {
		t.Fatal(err)
	}
	waitFor("the old leader to propose the block", func() bool { return inFlight(nw) })
	waitFor("a new leader", func() bool { l := nw.Leader(); return l >= 0 && l != old })
	nw.SetFaults(nil)
	healed := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), 3*consensus.Lap+time.Second)
	defer cancel()
	if r := h.Wait(ctx); !r.Committed {
		t.Fatalf("deposit after the leader change: %+v", r)
	}
	t.Logf("committed %v after the heal", time.Since(healed))
	waitFor("a node to decode the block", func() bool { return !inFlight(nw) })
	waitConverged(t, nw, 4)
	for i := range nw.nodes {
		v, _, err := nw.State(i).Get("chk:acct")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if got := contract.DecodeInt64(v); got != 105 {
			t.Fatalf("node %d: checking balance %d, want 105: the deposit did not apply exactly once", i, got)
		}
	}
}
