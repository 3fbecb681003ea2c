package ledger

import (
	"errors"
	"fmt"
	"testing"

	"dichotomy/internal/cryptoutil"
)

func makeBlock(l *Ledger, txs [][]byte) *Block {
	var parent cryptoutil.Hash
	if head := l.Head(); head != nil {
		parent = head.Hash()
	}
	return &Block{
		Header: Header{
			Number:     l.Height() + 1,
			ParentHash: parent,
			TxRoot:     ComputeTxRoot(txs),
		},
		Txs: txs,
	}
}

func TestAppendAndFetch(t *testing.T) {
	l := New()
	b := makeBlock(l, [][]byte{[]byte("tx1"), []byte("tx2")})
	if err := l.Append(b); err != nil {
		t.Fatal(err)
	}
	if l.Height() != 1 {
		t.Fatalf("Height = %d", l.Height())
	}
	got, ok := l.Block(1)
	if !ok || string(got.Txs[0]) != "tx1" {
		t.Fatal("Block(1) lookup failed")
	}
	if _, ok := l.ByHash(b.Hash()); !ok {
		t.Fatal("ByHash lookup failed")
	}
	if _, ok := l.Block(2); ok {
		t.Fatal("Block(2) should not exist")
	}
	if _, ok := l.Block(0); ok {
		t.Fatal("Block(0) should not exist")
	}
}

func TestChainLinks(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		if err := l.Append(makeBlock(l, [][]byte{[]byte(fmt.Sprintf("tx-%d", i))})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsWrongNumber(t *testing.T) {
	l := New()
	b := makeBlock(l, [][]byte{[]byte("tx")})
	b.Header.Number = 5
	if err := l.Append(b); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendRejectsWrongParent(t *testing.T) {
	l := New()
	l.Append(makeBlock(l, [][]byte{[]byte("tx1")}))
	b := makeBlock(l, [][]byte{[]byte("tx2")})
	b.Header.ParentHash = cryptoutil.HashBytes([]byte("bogus"))
	if err := l.Append(b); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v", err)
	}
}

func TestAppendRejectsWrongTxRoot(t *testing.T) {
	l := New()
	b := makeBlock(l, [][]byte{[]byte("tx")})
	b.Header.TxRoot = cryptoutil.HashBytes([]byte("bogus"))
	if err := l.Append(b); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v", err)
	}
}

func TestTamperDetectedByVerify(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		l.Append(makeBlock(l, [][]byte{[]byte(fmt.Sprintf("tx-%d", i))}))
	}
	// Mutate a committed transaction in place.
	b, _ := l.Block(3)
	b.Txs[0] = []byte("rewritten history")
	if err := l.Verify(); err == nil {
		t.Fatal("tampering not detected")
	}
}

func TestTxInclusionProof(t *testing.T) {
	l := New()
	txs := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	l.Append(makeBlock(l, txs))
	for i, tx := range txs {
		proof, ok := l.ProveTx(1, i)
		if !ok {
			t.Fatalf("ProveTx(1,%d) failed", i)
		}
		b, _ := l.Block(1)
		if !VerifyTxProof(b.Header.TxRoot, tx, proof) {
			t.Fatalf("proof for tx %d rejected", i)
		}
		if VerifyTxProof(b.Header.TxRoot, []byte("forged"), proof) {
			t.Fatal("forged tx accepted")
		}
	}
	if _, ok := l.ProveTx(1, 99); ok {
		t.Fatal("out-of-range proof")
	}
}

func TestStorageSizeGrowsPerBlock(t *testing.T) {
	l := New()
	l.Append(makeBlock(l, [][]byte{make([]byte, 1000)}))
	s1 := l.StorageSize()
	l.Append(makeBlock(l, [][]byte{make([]byte, 1000)}))
	if l.StorageSize() <= s1 {
		t.Fatal("ledger storage should accumulate — it retains history")
	}
	if s1 < 1000 {
		t.Fatalf("block storage %d smaller than its payload", s1)
	}
}

func TestHeadEmpty(t *testing.T) {
	if New().Head() != nil {
		t.Fatal("empty ledger has a head")
	}
}

// sealedLedger seals n one-transaction blocks.
func sealedLedger(n int) *Ledger {
	l := New()
	for i := 0; i < n; i++ {
		l.Seal([][]byte{[]byte(fmt.Sprintf("tx-%d", i))}, cryptoutil.Hash{}, 0)
	}
	return l
}

// TestSealEqualsAppend: a block Seal builds is the block a caller would
// have built by hand and passed to Append — same header, same hash — and a
// ledger of sealed blocks verifies and copies block by block into a fresh
// one, as a recovering replica copies a healthy replica's.
func TestSealEqualsAppend(t *testing.T) {
	sealed, appended := New(), New()
	state := cryptoutil.HashBytes([]byte("state"))
	for i := 0; i < 5; i++ {
		txs := [][]byte{[]byte(fmt.Sprintf("a-%d", i)), []byte(fmt.Sprintf("b-%d", i))}
		want := makeBlock(appended, txs)
		want.Header.StateRoot, want.Header.StateRootHeight = state, uint64(i)
		if err := appended.Append(want); err != nil {
			t.Fatal(err)
		}
		got := sealed.Seal(txs, state, uint64(i))
		if got.Header != want.Header || got.Hash() != want.Hash() {
			t.Fatalf("block %d: sealed header %+v, appended %+v", i+1, got.Header, want.Header)
		}
		if b, ok := sealed.ByHash(got.Hash()); !ok || b != got {
			t.Fatalf("block %d not indexed by hash", i+1)
		}
	}
	if err := sealed.Verify(); err != nil {
		t.Fatal(err)
	}
	copied := New()
	for n := uint64(1); n <= sealed.Height(); n++ {
		b, _ := sealed.Block(n)
		if err := copied.Append(b); err != nil {
			t.Fatalf("copy block %d: %v", n, err)
		}
	}
}

// TestAppendStillVerifiesForeignBlocks: the cached tip hash changes where
// the parent link comes from, not whether Append checks it.
func TestAppendStillVerifiesForeignBlocks(t *testing.T) {
	l := sealedLedger(3)
	other := sealedLedger(2)
	other.Seal([][]byte{[]byte("fork")}, cryptoutil.Hash{}, 0)
	fork := other.Seal([][]byte{[]byte("tx-3")}, cryptoutil.Hash{}, 0)
	if err := l.Append(fork); !errors.Is(err, ErrBroken) {
		t.Fatalf("block 4 of another chain accepted: %v", err)
	}
	good := makeBlock(l, [][]byte{[]byte("tx-3")})
	good.Txs = [][]byte{[]byte("swapped")}
	if err := l.Append(good); !errors.Is(err, ErrBroken) {
		t.Fatalf("body not matching its root accepted: %v", err)
	}
}

// TestSealHashesEachPayloadOnce pins "TxRoot computed once": sealing n
// payloads costs n leaf hashes, n−1 interior hashes and one header hash.
// The path it replaced (ComputeTxRoot, Append's re-check, two parent-hash
// computations) cost 4n.
func TestSealHashesEachPayloadOnce(t *testing.T) {
	const n = 100
	txs := make([][]byte, n)
	for i := range txs {
		txs[i] = []byte(fmt.Sprintf("payload-%d", i))
	}
	l := sealedLedger(1)
	before := cryptoutil.HashOps()
	l.Seal(txs, cryptoutil.Hash{}, 0)
	if got := cryptoutil.HashOps() - before; got != 2*n {
		t.Errorf("Seal of %d payloads cost %d hashes, want %d", n, got, 2*n)
	}
	if got := testing.AllocsPerRun(20, func() { l.Seal(txs, cryptoutil.Hash{}, 0) }); got > 8 {
		t.Errorf("Seal of %d payloads: %v allocs, want a handful per block, none per payload", n, got)
	}
}

// Golden vectors captured before the ledger started caching its tip and
// sealing its own blocks: roots and block hashes are persisted and compared
// across replicas, so they may not move.
func TestGoldenRootsAndHashes(t *testing.T) {
	hex := func(h cryptoutil.Hash) string { return fmt.Sprintf("%x", h[:]) }
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta"), []byte("epsilon")}
	roots := []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"8ed3f6ad685b959ead7022518e1af76cd816f8e8ec7ccdda1ed4018e8f2223f8",
		"8450e9a90d144185def662fffc477da5e0325d80be5de388ec20d9c58d6c72d0",
		"c090e94bc3a99676b532c602c1e5c68d53266dbf246e295a6b9b6a547da51fa2",
		"206e554a749c0e66f726a4d09737ce1c90167f8df6e7c0c3e41f21f41315876f",
		"cbd797c766cb0d8e60b112e6249e142b7a0adba885032773d98e704453ddd811",
	}
	for n, want := range roots {
		if got := hex(ComputeTxRoot(payloads[:n])); got != want {
			t.Errorf("tx root over %d payloads = %s, golden %s", n, got, want)
		}
	}
	b := Block{Header: Header{
		Number:          7,
		ParentHash:      cryptoutil.HashBytes([]byte("parent")),
		TxRoot:          ComputeTxRoot(payloads),
		StateRoot:       cryptoutil.HashBytes([]byte("state")),
		StateRootHeight: 5,
	}}
	if got, want := hex(b.Hash()), "a72fbb04bdacda59c12a28a4dd48c980570e55193546f74cfe9f4021da269351"; got != want {
		t.Errorf("block hash = %s, golden %s", got, want)
	}
	pair := cryptoutil.HashPair(cryptoutil.HashBytes([]byte("a")), cryptoutil.HashBytes([]byte("b")))
	if got, want := hex(pair), "e5a01fee14e0ed5c48714f22180f25ad8365b53f9779f79dc4a3d7e93963f94a"; got != want {
		t.Errorf("HashPair = %s, golden %s", got, want)
	}
}
