package fabric

import (
	"bytes"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/txn"
)

// BenchmarkEndorse is one transaction's endorsement round on the paper's
// four peers (phase 1, endorseAndAssemble): a KV modify of a 1 000-byte
// value, its client signature already in the verified-signature cache, as
// every endorser after the first finds it. Each op starts the transaction
// with no endorsements, as a submitted one does. Of its 283 allocations,
// 270 are the four endorsers' SignDigest (crypto/ecdsa's own: 67.5 on
// average, as about half the signatures take one allocation more, which
// cryptoutil's BenchmarkSignDigest truncates to 67) and 4 × 2 the
// contract stub and the value's copy (BenchmarkContractExecute). The
// round's own are 5: the fan-out — its WaitGroup and each endorser's
// answer and pinned snapshot, one allocation — the three endorsers'
// goroutines beyond the caller's, and the endorsement set, sized once.
// The exact mean is 283.1–283.2, so the count does not straddle 283.
func BenchmarkEndorse(b *testing.B) {
	nw, err := New(Config{Peers: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	client := cryptoutil.MustNewSigner("client")
	nw.RegisterClient(client.Name(), client.Public())
	value := bytes.Repeat([]byte{'v'}, 1000)
	sign := func(method string) *txn.Tx {
		t, err := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: method, Args: [][]byte{[]byte("user000000001"), value}})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	if r := nw.Execute(sign("put")); !r.Committed {
		b.Fatalf("put: %+v", r)
	}
	// Every endorser must read the put, or the reads disagree.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range nw.peers {
		for p.Ledger.Height() < 1 {
			if time.Now().After(deadline) {
				b.Fatalf("%s never sealed the put", p.name)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	t, live := sign("modify"), nw.livePeers()
	if _, ok := nw.endorseAndAssemble(t, live); !ok || len(t.Endorsements) != 4 {
		b.Fatalf("the round assembled %d endorsements", len(t.Endorsements))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		t.Endorsements = nil
		if r, ok := nw.endorseAndAssemble(t, live); !ok {
			b.Fatalf("endorse: %+v", r)
		}
	}
}
