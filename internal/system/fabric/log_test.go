package fabric

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"dichotomy/internal/txn"
)

// The ordering service's log holds the transactions themselves: after 50
// committed updates, a fresh subscription from the first batch decodes
// batch N to exactly ledger block N's payloads.
func TestOrderingLogHoldsTheLedgersPayloads(t *testing.T) {
	nw, client := network(t, Config{Peers: 2})
	for i := 0; i < 50; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%02d", i), "v")); !r.Committed {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	tip := nw.ordering.Batches()
	for deadline := time.Now().Add(10 * time.Second); nw.Ledger(0).Height() < tip; {
		if time.Now().After(deadline) {
			t.Fatalf("peer 0 sealed %d blocks of the log's %d", nw.Ledger(0).Height(), tip)
		}
		time.Sleep(time.Millisecond)
	}
	c := nw.ordering.Subscribe(1)
	defer c.Close()
	txs := 0
	for n := uint64(1); n <= tip; n++ {
		batch := <-c.Batches()
		var b txn.Block
		for _, rec := range batch.Records {
			if err := b.DecodeOne(rec); err != nil {
				t.Fatalf("batch %d: a record that is no transaction: %v", batch.Seq, err)
			}
		}
		blk, _ := nw.Ledger(0).Block(batch.Seq)
		if batch.Seq != n || len(b.Raw) != len(blk.Txs) {
			t.Fatalf("batch %d decodes to %d txs, ledger block %d holds %d", batch.Seq, len(b.Raw), n, len(blk.Txs))
		}
		for i, raw := range b.Raw {
			if !bytes.Equal(raw, blk.Txs[i]) || len(b.Txs[i].Endorsements) != 2 {
				t.Fatalf("batch %d record %d differs from ledger block %d's transaction", n, i, n)
			}
		}
		txs += len(b.Txs)
	}
	if txs != 50 {
		t.Fatalf("the log holds %d transactions, want 50", txs)
	}
}

// A peer's decoded views are reused once their block has sealed, so
// nothing past Seal may hold one: not the ledger, the state store, the
// root maintainer or the pending table. The test drives one peer's stages
// by hand, takes weak pointers into every slab its views came from, then
// drops the free list — and after a GC every one of them is gone.
func TestSealedBlockViewsAreHeldByNoOne(t *testing.T) {
	nw, client := network(t, Config{Peers: 2, AuthState: true})
	p := nw.peers[1]
	p.Stop() // its loops: the test runs its stages instead
	for i := 0; i < 20; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%02d", i), "v")); !r.Committed {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	var alive []func() bool
	held := func(ptr func() bool) { alive = append(alive, ptr) }
	for p.Ledger.Height() < nw.Ledger(0).Height() {
		b, _ := p.decodeBlock(<-p.consumer.Batches())
		for _, tx := range b.Txs {
			tw, aw, ww, ew := weak.Make(tx), weak.Make(&tx.Invocation.Args[0]), weak.Make(&tx.RWSet.Writes[0]), weak.Make(&tx.Endorsements[0])
			held(func() bool { return tw.Value() != nil })
			held(func() bool { return aw.Value() != nil })
			held(func() bool { return ww.Value() != nil })
			held(func() bool { return ew.Value() != nil })
		}
		p.validateBlock(b)
		p.applyBlock(b)
		p.sealBlock(b)
	}
	if len(alive) != 4*20 {
		t.Fatalf("decoded %d views, want the 20 puts'", len(alive)/4)
	}
	for len(p.free) > 0 {
		<-p.free
	}
	runtime.GC()
	runtime.GC()
	for i, ok := range alive {
		if ok() {
			t.Fatalf("view slab %d of tx %d is still reachable after its block sealed", i%4, i/4)
		}
	}
	for n := uint64(1); n <= p.Ledger.Height(); n++ {
		mine, _ := p.Ledger.Block(n)
		ref, _ := nw.Ledger(0).Block(n)
		if mine.Header.TxRoot != ref.Header.TxRoot {
			t.Fatalf("the hand-driven peer's block %d differs from peer 0's", n)
		}
	}
}
