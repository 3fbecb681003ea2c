package quorum

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/consensus"
)

// inFlight reports whether any block is in the network's in-flight table:
// an id issued now carries itself as the mark only when nothing issued
// before it is still in flight.
func inFlight(nw *Network) bool {
	entry := make([]byte, consensus.Header)
	id := nw.flight.Issue(entry, struct{}{})
	nw.flight.Finish(id)
	return binary.BigEndian.Uint64(entry[8:]) != id
}

// The consensus log holds the blocks themselves: every committed entry at
// index N decodes, on its own, to exactly the payloads of ledger block N,
// and an empty no-op entry to an empty block. One follower's loops are
// stopped so the test reads its log in their place, from where its decode
// stage stopped.
func TestCommittedEntriesCarryTheirBlocks(t *testing.T) {
	nw, client := network(t, Config{Nodes: 3})
	if r := nw.Execute(mustTx(t, client, "put", "warm", "up")); !r.Committed {
		t.Fatalf("warm-up put: %+v", r)
	}
	leader := nw.Leader()
	if leader < 0 {
		t.Fatal("no leader after a committed block")
	}
	tap := nw.nodes[(leader+1)%3]
	tap.Stop()
	for i := 0; i < 50; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%02d", i), "v")); !r.Committed {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	tip := nw.Ledger(leader).Height()
	txs := 0
	stop := make(chan struct{})
	defer time.AfterFunc(10*time.Second, func() { close(stop) }).Stop()
	log := consensus.NewReader(tap.cons, tap.Delivered.Load()+1)
	for index := tap.Delivered.Load(); index < tip; {
		e, ok := log.Next(stop)
		if !ok {
			t.Fatalf("the log stopped at index %d, the ledger is at %d", index, tip)
		}
		index = e.Index
		nb, ok := tap.decodeBlock(e)
		if !ok {
			t.Fatalf("entry %d decoded to no block", e.Index)
		}
		blk, ok := nw.Ledger(leader).Block(e.Index)
		if !ok || len(nb.Raw) != len(blk.Txs) {
			t.Fatalf("entry %d decodes to %d txs, ledger block %d holds %d", e.Index, len(nb.Raw), e.Index, len(blk.Txs))
		}
		for i, raw := range nb.Raw {
			if !bytes.Equal(raw, blk.Txs[i]) || nb.Txs[i].Invocation.Method != "put" {
				t.Fatalf("entry %d tx %d differs from ledger block %d's", e.Index, i, e.Index)
			}
		}
		txs += len(nb.Txs)
		tap.release(nb)
	}
	if txs < 50 {
		t.Fatalf("the log's entries carry %d transactions, want the 50 puts", txs)
	}
	nb, ok := tap.decodeBlock(consensus.Entry{Index: tip + 1})
	if !ok || len(nb.Txs) != 0 || len(nb.Raw) != 0 {
		t.Fatalf("an empty no-op entry decoded to %d txs, want an empty block", len(nb.Txs))
	}
}
