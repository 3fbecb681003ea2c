package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/chaos"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/occ"
	"dichotomy/internal/storage"
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
	nw, client := network(t, Config{Peers: 3})
	if r := nw.Execute(mustTx(t, client, "put", "alpha", "1")); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	if r := nw.Execute(mustTx(t, client, "get", "alpha")); !r.Committed {
		t.Fatalf("get: %+v", r)
	}
}

func TestUnknownClientRejected(t *testing.T) {
	nw, _ := network(t, Config{Peers: 3})
	stranger := cryptoutil.MustNewSigner("stranger")
	tx, _ := txn.Sign(stranger, txn.Invocation{Contract: contract.KVName, Method: "put", Args: [][]byte{[]byte("k"), []byte("v")}})
	if r := nw.Execute(tx); r.Err == nil {
		t.Fatal("unauthenticated client accepted")
	}
}

func TestLedgersConverge(t *testing.T) {
	nw, client := network(t, Config{Peers: 3})
	for i := 0; i < 20; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%d", i), "v")); !r.Committed {
			t.Fatalf("tx %d: %+v", i, r)
		}
	}
	h := nw.Ledger(0).Height()
	if h == 0 {
		t.Fatal("no blocks")
	}
	for i := 1; i < 3; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for nw.Ledger(i).Height() < h && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if nw.Ledger(i).Height() < h {
			t.Fatalf("peer %d stuck at height %d < %d", i, nw.Ledger(i).Height(), h)
		}
	}
	for i := 0; i < 3; i++ {
		if err := nw.Ledger(i).Verify(); err != nil {
			t.Fatalf("peer %d ledger: %v", i, err)
		}
	}
}

func TestConcurrentWritersOnHotKeyAbort(t *testing.T) {
	// Fabric's OCC: concurrent read-modify-writes of one key mostly abort
	// with read-write conflicts — the Fig 9 mechanism.
	nw, client := network(t, Config{Peers: 3})
	if r := nw.Execute(mustTx(t, client, "put", "hot", "0")); !r.Committed {
		t.Fatalf("seed: %+v", r)
	}
	// Execute returns at the first peer's seal. A writer that endorses
	// while another peer has not applied the seed block reads two versions
	// of the key and aborts as an inconsistent read, never reaching the MVCC
	// check this test is about — so every peer reaches the seed's height
	// before the writers start.
	var seed uint64
	for i := 0; i < 3; i++ {
		seed = max(seed, nw.Ledger(i).Height())
	}
	for i := 0; i < 3; i++ {
		for deadline := time.Now().Add(10 * time.Second); nw.Ledger(i).Height() < seed; {
			if time.Now().After(deadline) {
				t.Fatalf("peer %d stuck at height %d below the seed's %d", i, nw.Ledger(i).Height(), seed)
			}
			time.Sleep(time.Millisecond)
		}
	}
	const writers = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, conflicts := 0, 0
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := nw.Execute(mustTx(t, client, "modify", "hot", fmt.Sprintf("w%d", w)))
			mu.Lock()
			defer mu.Unlock()
			if r.Committed {
				committed++
			} else if r.Reason == occ.ReadWriteConflict {
				conflicts++
			}
		}(w)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatal("every writer aborted; at least one must win")
	}
	if conflicts == 0 {
		t.Fatal("no read-write conflicts under contention — OCC not engaged")
	}
}

func TestIndependentKeysAllCommit(t *testing.T) {
	nw, client := network(t, Config{Peers: 3})
	const writers = 16
	var wg sync.WaitGroup
	errs := make(chan string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := nw.Execute(mustTx(t, client, "modify", fmt.Sprintf("key-%d", w), "v"))
			if !r.Committed {
				errs <- fmt.Sprintf("writer %d: %+v", w, r)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestValidationBreakdownPopulated(t *testing.T) {
	nw, client := network(t, Config{Peers: 3})
	for i := 0; i < 5; i++ {
		nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%d", i), "v"))
	}
	if nw.Breakdown.Mean("validate") == 0 {
		t.Fatal("validate phase unrecorded")
	}
	if nw.Breakdown.Mean("validate-sig") == 0 {
		t.Fatal("signature-verification share unrecorded")
	}
}

func TestBlockBytesExceedStateBytes(t *testing.T) {
	// Fig 12's core observation: the ledger keeps history, so block
	// storage outgrows state storage.
	nw, client := network(t, Config{Peers: 3})
	for i := 0; i < 10; i++ {
		nw.Execute(mustTx(t, client, "put", "same-key", fmt.Sprintf("version-%d", i)))
	}
	if nw.BlockBytes() <= nw.StateBytes() {
		t.Fatalf("blocks %d ≤ state %d; history not retained?", nw.BlockBytes(), nw.StateBytes())
	}
}

// TestAuthStateServesVerifiedReads: with AuthState on, committed writes
// become provable through each peer's proof server, every peer's signed
// root converges to the same hash, and sealed headers carry it.
func TestAuthStateServesVerifiedReads(t *testing.T) {
	nw, client := network(t, Config{Peers: 3, AuthState: true})
	for i := 0; i < 5; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%d", i), "v")); !r.Committed {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	// Execute returns when the first peer seals the block, so peer 0's
	// ledger may briefly trail the resolving peer; WaitFor(tip) can then
	// return roots at different heights. Raise tip to the highest height
	// any peer reports until all three answer at the same height — the
	// network is quiescent, so heights are monotone and bounded.
	tip := nw.Ledger(0).Height()
	roots := make([]cryptoutil.Hash, 3)
	deadline := time.Now().Add(10 * time.Second)
	for {
		heights := make([]uint64, 3)
		for i := 0; i < 3; i++ {
			sr, err := nw.Auth(i).WaitFor(tip, 10*time.Second)
			if err != nil {
				t.Fatalf("peer %d root: %v", i, err)
			}
			if err := sr.Verify(nw.Auth(i).Public()); err != nil {
				t.Fatalf("peer %d root sig: %v", i, err)
			}
			roots[i] = sr.Root
			heights[i] = sr.Height
			if heights[i] > tip {
				tip = heights[i]
			}
		}
		if heights[0] == heights[1] && heights[1] == heights[2] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer root heights never converge: %v", heights)
		}
	}
	if roots[0] != roots[1] || roots[1] != roots[2] {
		t.Fatalf("peer roots diverge: %x %x %x", roots[0], roots[1], roots[2])
	}
	got, err := nw.Proofs(0).VerifiedGet("k0")
	if err != nil {
		t.Fatal(err)
	}
	if err := mpt.VerifyProof(got.Root.Root, []byte("k0"), got.Proof); err != nil {
		t.Fatalf("proof: %v", err)
	}
	// A header sealed after the first publication carries a signed root.
	head := nw.Ledger(0).Head()
	if head.Header.Number > 1 && head.Header.StateRootHeight == 0 {
		t.Fatalf("head at %d carries no state commitment", head.Header.Number)
	}
}

// TestPeersSealTheBytesEncodedAtOrdering pins encode-once: a transaction is
// marshalled where it enters ordering, and every peer's seal stage appends
// those bytes — the same backing array, so zero marshals per replica — under
// a transaction root each peer computed itself.
func TestPeersSealTheBytesEncodedAtOrdering(t *testing.T) {
	const peers = 3
	nw, client := network(t, Config{Peers: peers})
	for i := 0; i < 12; i++ {
		if r := nw.Execute(mustTx(t, client, "put", fmt.Sprintf("k%d", i), "v")); !r.Committed {
			t.Fatalf("tx %d: %+v", i, r)
		}
	}
	// Execute returns when the first peer seals; wait for the laggards.
	sealed := func(i int) (n int) {
		l := nw.Ledger(i)
		for b := uint64(1); b <= l.Height(); b++ {
			blk, _ := l.Block(b)
			n += len(blk.Txs)
		}
		return n
	}
	for i := 0; i < peers; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for sealed(i) < 12 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	h := nw.Ledger(0).Height()
	seen := 0
	for n := uint64(1); n <= h; n++ {
		ref, _ := nw.Ledger(0).Block(n)
		for i := 1; i < peers; i++ {
			blk, ok := nw.Ledger(i).Block(n)
			if !ok || blk.Header != ref.Header || len(blk.Txs) != len(ref.Txs) {
				t.Fatalf("peer %d block %d differs from peer 0", i, n)
			}
			if blk == ref {
				t.Fatalf("peer %d shares peer 0's block %d: each peer seals its own", i, n)
			}
			for k := range blk.Txs {
				if &blk.Txs[k][0] != &ref.Txs[k][0] {
					t.Fatalf("peer %d block %d tx %d was marshalled again", i, n, k)
				}
			}
		}
		for _, raw := range ref.Txs {
			tx, err := txn.Unmarshal(raw)
			if err != nil {
				t.Fatalf("block %d: %v", n, err)
			}
			if len(tx.Endorsements) != peers || len(tx.RWSet.Writes) != 1 {
				t.Fatalf("block %d holds bytes encoded before endorsement: %+v", n, tx)
			}
			seen++
		}
	}
	if seen != 12 {
		t.Fatalf("ledger holds %d transactions, want 12", seen)
	}
}

// TestValidateRejectsRepeatedEndorser plants, in each verification mode,
// a transaction whose endorsement policy (all four peers) is filled with
// four copies of one peer's valid endorsement, beside an honest one. Every
// mode's validate stage must give the serial verdict: reject the first,
// accept the second.
func TestValidateRejectsRepeatedEndorser(t *testing.T) {
	for _, mode := range []string{"serial", "batch", "aggregate"} {
		t.Run(mode, func(t *testing.T) {
			nw, client := network(t, Config{
				BatchVerify:           mode == "batch",
				AggregateEndorsements: mode == "aggregate",
			})
			live := nw.livePeers()
			endorsed := func(key string) *txn.Tx {
				tx := mustTx(t, client, "put", key, "v")
				if r, ok := nw.endorseAndAssemble(tx, live); !ok {
					t.Fatalf("endorse: %+v", r)
				}
				return tx
			}
			honest, forged := endorsed("honest"), endorsed("forged")
			one := forged.Endorsements[0]
			forged.Endorsements = []txn.Endorsement{one, one, one, one}
			if mode == "aggregate" {
				// The leader cosigns what it was given; the aggregate over
				// the copies is itself valid.
				if err := forged.Cosign(live[0].signer); err != nil {
					t.Fatal(err)
				}
			}
			b := &fabricBlock{Block: txn.Block{Txs: []*txn.Tx{forged, honest}}}
			nw.peers[1].validateBlock(b)
			if b.verdicts[0] == occ.OK {
				t.Error("one peer's endorsement, copied four times, satisfied a 4-of-4 policy")
			}
			if b.verdicts[1] != occ.OK {
				t.Errorf("honest transaction rejected: %v", b.verdicts[1])
			}
		})
	}
}

// closingEngine holds a read of key, once armed, until the engine closes:
// an endorsement caught mid-simulation by a crash.
type closingEngine struct {
	storage.Engine
	key       string
	armed     atomic.Bool
	enterOnce sync.Once
	closeOnce sync.Once
	entered   chan struct{}
	closed    chan struct{}
}

func (e *closingEngine) Get(key []byte) ([]byte, error) {
	if e.armed.Load() && string(key) == e.key {
		e.enterOnce.Do(func() { close(e.entered) })
		<-e.closed
	}
	return e.Engine.Get(key)
}

func (e *closingEngine) Close() error {
	err := e.Engine.Close()
	e.closeOnce.Do(func() { close(e.closed) })
	return err
}

// TestEndorsementRacingCrashStillCommits: peer 2 crashes while it
// simulates, so its endorsement answers storage.ErrClosed. Under a
// 3-of-4 policy the other three endorsements still carry the
// transaction, which must commit rather than fail with the closed
// engine's error.
func TestEndorsementRacingCrashStillCommits(t *testing.T) {
	held := &closingEngine{key: "held", entered: make(chan struct{}), closed: make(chan struct{})}
	opened := 0
	nw, client := network(t, Config{
		EndorsementsNeeded: 3,
		EngineHook: func(e storage.Engine) storage.Engine {
			if opened++; opened == 3 { // peer 2's engine
				held.Engine = e
				return held
			}
			return e
		},
	})
	if r := nw.Execute(mustTx(t, client, "put", "held", "0")); !r.Committed {
		t.Fatalf("seed: %+v", r)
	}
	// Let every peer seal the seed block: a commit still waiting behind the
	// held read's snapshot would keep CrashPeer from stopping the peer.
	deadline := time.Now().Add(10 * time.Second)
	for i := range nw.peers {
		for nw.Ledger(i).Height() < 1 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	held.armed.Store(true)
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		<-held.entered
		nw.CrashPeer(2)
	}()
	r := nw.Execute(mustTx(t, client, "modify", "held", "1"))
	<-crashed // CrashPeer finishes before the cleanup's Close
	if !r.Committed {
		t.Fatalf("endorsement racing CrashPeer(2): %+v, want a commit on the three live endorsements", r)
	}
}

// TestRecoveryCommitFailureFailsRecovery: when the engine a recovery
// rebuilds onto rejects the replayed writes, RecoverPeer reports it and
// the peer stays crashed — the behaviour the shared catch-up keeps, and
// the one Quorum's own copy of the replay loop had lost (its twin test).
func TestRecoveryCommitFailureFailsRecovery(t *testing.T) {
	faulty := chaos.MustNew(chaos.Config{Seed: 1, WriteFailRate: 1})
	opened := 0
	nw, client := network(t, Config{
		Peers:              3,
		EndorsementsNeeded: 2,
		EngineHook: func(e storage.Engine) storage.Engine {
			if opened++; opened == 4 { // the three peers' engines, then the recovery's
				return faulty.WrapEngine(e)
			}
			return e
		},
	})
	for _, k := range []string{"alpha", "beta", "gamma"} {
		if r := nw.Execute(mustTx(t, client, "put", k, "1")); !r.Committed {
			t.Fatalf("put %s: %+v", k, r)
		}
	}
	nw.CrashPeer(2)
	if _, err := nw.RecoverPeer(2, 0, 0); !errors.Is(err, chaos.ErrWriteFault) {
		t.Fatalf("RecoverPeer over a failing engine: %v, want the injected write fault", err)
	}
	if !nw.peers[2].Crashed() {
		t.Fatal("peer rejoined after a failed recovery")
	}
}
