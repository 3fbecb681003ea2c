package system_test

import (
	"context"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/ingress"
	"dichotomy/internal/ledger"
	"dichotomy/internal/metrics"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/txn"
)

// sealedEverywhere reports whether every ledger holds a transaction with
// the given id.
func sealedEverywhere(ledgers []*ledger.Ledger, id cryptoutil.Hash) bool {
	for _, l := range ledgers {
		found := false
		for n := l.Height(); n > 0 && !found; n-- {
			blk, _ := l.Block(n)
			for _, raw := range blk.Txs {
				if t, err := txn.Unmarshal(raw); err == nil && t.ID == id {
					found = true
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Every replica decodes its own copy of a block, so the seal-side phase
// of a submitted transaction is observed once, by the replica that
// resolves it: after every replica has sealed it, a Fabric update on four
// peers carries one validate span, and a Quorum update one execute span.
// (When the four peers validated one shared *Tx, each added its own.)
func TestSealSidePhaseObservedOnce(t *testing.T) {
	client := cryptoutil.MustNewSigner("span-client")
	cases := []struct {
		name  string
		phase string
		build func(ic *ingress.Config) (system.System, []*ledger.Ledger)
	}{
		{
			name:  "fabric",
			phase: metrics.PhaseValidate,
			build: func(ic *ingress.Config) (system.System, []*ledger.Ledger) {
				nw, err := fabric.New(fabric.Config{Peers: 4, Ingress: ic})
				if err != nil {
					t.Fatal(err)
				}
				nw.RegisterClient(client.Name(), client.Public())
				return nw, []*ledger.Ledger{nw.Ledger(0), nw.Ledger(1), nw.Ledger(2), nw.Ledger(3)}
			},
		},
		{
			name:  "quorum",
			phase: metrics.PhaseExecute,
			build: func(ic *ingress.Config) (system.System, []*ledger.Ledger) {
				nw, err := quorum.New(quorum.Config{Nodes: 4, Ingress: ic})
				if err != nil {
					t.Fatal(err)
				}
				nw.RegisterClient(client.Name(), client.Public())
				return nw, []*ledger.Ledger{nw.Ledger(0), nw.Ledger(1), nw.Ledger(2), nw.Ledger(3)}
			},
		},
	}
	for _, tc := range cases {
		for _, door := range []struct {
			name string
			cfg  *ingress.Config
		}{{"direct", nil}, {"mempool", &ingress.Config{MaxBlock: 8, BuildInterval: time.Millisecond}}} {
			t.Run(tc.name+"/"+door.name, func(t *testing.T) {
				sys, ledgers := tc.build(door.cfg)
				defer sys.Close()
				tx := signTx(t, client, "kv", "put", "span-key", "v")
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				h, err := sys.Submit(ctx, tx)
				if err != nil {
					t.Fatal(err)
				}
				if r := h.Wait(ctx); !r.Committed {
					t.Fatalf("put: %+v", r)
				}
				for !sealedEverywhere(ledgers, tx.ID) {
					if ctx.Err() != nil {
						t.Fatal("not every replica sealed the put")
					}
					time.Sleep(2 * time.Millisecond)
				}
				if n := tx.Trace.Count(tc.phase); n != 1 {
					t.Fatalf("%d %s spans on the submitted transaction, want 1", n, tc.phase)
				}
			})
		}
	}
}

// A BigchainDB entry is unique per submission: one deposit submitted twice
// in sequence commits twice, each within a second, and the balance moves
// twice. (PBFT drops a payload whose digest it has already sequenced, and
// a transaction's ID has no nonce.)
func TestBigchainRepeatedSubmissionCommitsAgain(t *testing.T) {
	client := cryptoutil.MustNewSigner("repeat-client")
	b, err := hybrid.NewBigchain(hybrid.BigchainConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if r := b.Execute(signTx(t, client, contract.SmallbankName, "create_account",
		"acct", string(contract.EncodeInt64(100)), string(contract.EncodeInt64(0)))); !r.Committed {
		t.Fatalf("create_account: %+v", r)
	}
	deposit := signTx(t, client, contract.SmallbankName, "deposit_checking", "acct", string(contract.EncodeInt64(5)))
	for i := range 2 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := b.Submit(ctx, deposit)
		if err != nil {
			t.Fatal(err)
		}
		r := h.Wait(ctx)
		cancel()
		if !r.Committed {
			t.Fatalf("submission %d: %+v", i, r)
		}
	}
	for i := range 4 {
		for deadline := time.Now().Add(5 * time.Second); ; {
			v, _, err := b.State(i).Get("chk:acct")
			if err == nil && contract.DecodeInt64(v) == 110 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("validator %d: checking balance %d (%v), want 110: the repeat did not commit", i, contract.DecodeInt64(v), err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
