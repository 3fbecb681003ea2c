package quorum

import (
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/txn"
)

func network(t *testing.T, cfg Config) (*Network, *cryptoutil.Signer) {
	t.Helper()
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	client := cryptoutil.MustNewSigner("client")
	nw.RegisterClient(client.Name(), client.Public())
	return nw, client
}

func mustTx(t *testing.T, client *cryptoutil.Signer, method string, args ...string) *txn.Tx {
	t.Helper()
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	tx, err := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: method, Args: raw})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestCommitAndRead(t *testing.T) {
	nw, client := network(t, Config{Nodes: 3})
	r := nw.Execute(mustTx(t, client, "put", "alpha", "1"))
	if !r.Committed {
		t.Fatalf("put result %+v", r)
	}
	r = nw.Execute(mustTx(t, client, "get", "alpha"))
	if !r.Committed {
		t.Fatalf("get result %+v", r)
	}
}

func TestUnknownClientRejected(t *testing.T) {
	nw, _ := network(t, Config{Nodes: 3})
	stranger := cryptoutil.MustNewSigner("stranger")
	tx, _ := txn.Sign(stranger, txn.Invocation{Contract: contract.KVName, Method: "get", Args: [][]byte{[]byte("k")}})
	if r := nw.Execute(tx); r.Err == nil {
		t.Fatal("unauthenticated client served")
	}
}

func TestStateAgreesAcrossNodes(t *testing.T) {
	nw, client := network(t, Config{Nodes: 3})
	for i := 0; i < 30; i++ {
		r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
		if !r.Committed {
			t.Fatalf("tx %d: %+v", i, r)
		}
	}
	// Wait until every node's ledger has converged to the same, stable
	// height (applies run asynchronously after clients return), then all
	// MPT roots must agree.
	h := waitConverged(t, nw, 3)
	if h == 0 {
		t.Fatal("no blocks committed")
	}
	root := nw.StateRoot(0)
	for i := 1; i < 3; i++ {
		if nw.StateRoot(i) != root {
			t.Fatalf("node %d state root diverged", i)
		}
	}
	if err := nw.Ledger(0).Verify(); err != nil {
		t.Fatal(err)
	}
}

// waitConverged blocks until all nodes report the same ledger height twice
// in a row, and returns that height.
func waitConverged(t *testing.T, nw *Network, nodes int) uint64 {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var prev uint64
	stable := 0
	for time.Now().Before(deadline) {
		h := nw.Ledger(0).Height()
		same := true
		for i := 1; i < nodes; i++ {
			if nw.Ledger(i).Height() != h {
				same = false
				break
			}
		}
		if same && h == prev && h > 0 {
			stable++
			if stable >= 3 {
				return h
			}
		} else {
			stable = 0
		}
		prev = h
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("ledgers never converged")
	return 0
}

// waitLeader returns the current leader once a node claims to lead. Over
// IBFT each node names the proposer of its own height and round, so while
// the nodes step from one height to the next none may claim it.
func waitLeader(t *testing.T, nw *Network) int {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if l := nw.Leader(); l >= 0 {
			return l
		}
	}
	t.Fatal("no leader after committed blocks")
	return -1
}

func TestIBFTModeCommits(t *testing.T) {
	nw, client := network(t, Config{Nodes: 4, Consensus: IBFT})
	r := nw.Execute(mustTx(t, client, "put", "k", "v"))
	if !r.Committed {
		t.Fatalf("ibft put: %+v", r)
	}
}

func TestIBFTRejectsTooFewNodes(t *testing.T) {
	if _, err := New(Config{Nodes: 3, Consensus: IBFT}); err == nil {
		t.Fatal("IBFT with 3 nodes accepted")
	}
}

func TestSerialExecutionNoConflicts(t *testing.T) {
	// Order-execute systems never abort on contention: all writers to the
	// same key commit, serially.
	nw, client := network(t, Config{Nodes: 3})
	done := make(chan bool, 16)
	for w := 0; w < 16; w++ {
		go func(w int) {
			r := nw.Execute(mustTx(t, client, "modify", "hot", fmt.Sprintf("w%d", w)))
			done <- r.Committed
		}(w)
	}
	for i := 0; i < 16; i++ {
		if !<-done {
			t.Fatal("serial execution aborted a contended write")
		}
	}
}

func TestStateBytesGrow(t *testing.T) {
	nw, client := network(t, Config{Nodes: 3})
	before := nw.StateBytes()
	for i := 0; i < 10; i++ {
		nw.Execute(mustTx(t, client, "put", fmt.Sprintf("key-%d", i), "some-value-payload"))
	}
	if nw.StateBytes() <= before {
		t.Fatal("state bytes did not grow")
	}
}

// TestNodesSealTheProposersBytes pins encode-once: the proposer marshals a
// block's transactions when it proposes, and every node's seal stage
// appends those bytes — the same backing array, so zero marshals per
// replica — under a transaction root each node computed itself.
func TestNodesSealTheProposersBytes(t *testing.T) {
	const nodes = 3
	nw, client := network(t, Config{Nodes: nodes})
	for i := 0; i < 10; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%d", i), "v")); !r.Committed {
			t.Fatalf("tx %d: %+v", i, r)
		}
	}
	h := waitConverged(t, nw, nodes)
	seen := 0
	for n := uint64(1); n <= h; n++ {
		ref, _ := nw.Ledger(0).Block(n)
		for i := 1; i < nodes; i++ {
			blk, ok := nw.Ledger(i).Block(n)
			if !ok || blk.Header.TxRoot != ref.Header.TxRoot || len(blk.Txs) != len(ref.Txs) {
				t.Fatalf("node %d block %d differs from node 0", i, n)
			}
			if blk == ref {
				t.Fatalf("node %d shares node 0's block %d: each node seals its own", i, n)
			}
			for k := range blk.Txs {
				if &blk.Txs[k][0] != &ref.Txs[k][0] {
					t.Fatalf("node %d block %d tx %d was marshalled again", i, n, k)
				}
			}
		}
		for _, raw := range ref.Txs {
			if _, err := txn.Unmarshal(raw); err != nil {
				t.Fatalf("block %d: %v", n, err)
			}
			seen++
		}
	}
	if seen != 10 {
		t.Fatalf("ledger holds %d transactions, want 10", seen)
	}
}
