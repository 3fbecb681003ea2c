// A live duplicate on the direct path attaches to the pending submission,
// as it does at the ingress mempool (TestIngressDedupRegression): the four
// ledger systems keep one pending table per transaction on both paths.
package system_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/ingress"
	"dichotomy/internal/state"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// Two callers submit one content-identical Smallbank transfer at once to
// each ledger system without a front door. The second attaches to the
// first's pending handle, both get the one committed result within a
// second, and the money moves once. (When the direct path
// registered a waiter per call, the second registration overwrote the
// first, both copies ran, and one caller waited out the 60 s commit
// timeout.)
func TestDirectDuplicateAttaches(t *testing.T) {
	client := cryptoutil.MustNewSigner("direct-dup-client")
	cases := append(ingressCases(client), ingressCase{
		name: "bigchain",
		build: func(t *testing.T, _ *ingress.Config) system.System {
			b, err := hybrid.NewBigchain(hybrid.BigchainConfig{Nodes: 4})
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		states: func(sys system.System) []*state.Store {
			b := sys.(*hybrid.Bigchain)
			out := make([]*state.Store, 4)
			for i := range out {
				out[i] = b.State(i)
			}
			return out
		},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build(t, nil)
			defer sys.Close()
			for _, acct := range []string{"dup-src", "dup-dst"} {
				r := sys.Execute(signTx(t, client, contract.SmallbankName, "create_account",
					acct, string(contract.EncodeInt64(1000)), string(contract.EncodeInt64(1000))))
				if !r.Committed {
					t.Fatalf("create %s: %+v", acct, r)
				}
			}
			// Every endorsing peer must know both accounts before the
			// transfer is simulated.
			waitReplicasEqual(t, tc.states(sys))

			txs := make([]*txn.Tx, 2)
			for i := range txs {
				txs[i] = signTx(t, client, contract.SmallbankName, "send_payment",
					"dup-src", "dup-dst", string(contract.EncodeInt64(7)))
			}
			if txs[0].ID != txs[1].ID {
				t.Fatal("identical invocations hashed differently")
			}
			// Both submissions go in back to back, before either caller
			// waits, and every message sent meanwhile is held back 100 ms,
			// so the second arrives while the first is pending however
			// the goroutines are scheduled.
			net := sys.(interface{ SetFaults(cluster.FaultHook) })
			net.SetFaults(func(cluster.NodeID, cluster.NodeID) (bool, time.Duration) {
				return false, 100 * time.Millisecond
			})
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			handles := make([]*system.Handle, 2)
			for i, tx := range txs {
				h, err := sys.Submit(ctx, tx)
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				handles[i] = h
			}
			net.SetFaults(nil)
			if handles[0] != handles[1] {
				t.Error("the duplicate did not attach to the pending submission's handle")
			}
			results := make([]system.Result, 2)
			var wg sync.WaitGroup
			for i, h := range handles {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i] = h.Wait(ctx)
				}()
			}
			wg.Wait()
			for i, r := range results {
				if !r.Committed || r.Err != nil {
					t.Fatalf("caller %d: %+v", i, r)
				}
			}
			if results[0].Reason != results[1].Reason {
				t.Fatalf("the callers got different results: %+v, %+v", results[0], results[1])
			}

			stores := tc.states(sys)
			waitReplicasEqual(t, stores)
			v, _, err := stores[0].Get("chk:dup-src")
			if err != nil {
				t.Fatalf("read dup-src: %v", err)
			}
			if got := contract.DecodeInt64(v); got != 993 {
				t.Fatalf("dup-src balance %d, want 993: the transfer did not run exactly once", got)
			}
		})
	}
}
