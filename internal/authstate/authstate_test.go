package authstate

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/state"
	"dichotomy/internal/txn"
)

func testWrites(rng *rand.Rand, blockNum uint64, n int) []state.VersionedWrite {
	ws := make([]state.VersionedWrite, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(150))
		var v []byte
		if rng.Intn(8) != 0 { // occasional delete
			v = []byte(fmt.Sprintf("val-%d-%d", blockNum, i))
		}
		ws = append(ws, state.VersionedWrite{
			Write:   txn.Write{Key: k, Value: v},
			Version: txn.Version{BlockNum: blockNum, TxNum: uint32(i)},
		})
	}
	return ws
}

// TestAsyncRootMatchesSyncAtEveryHeight is the equivalence proof the
// refactor rests on: the maintainer's published root at every height is
// byte-identical to an inline-updated trie's — the synchronous baseline
// the committer used to compute under its lock. The inline trie never
// snapshots, so all its nodes stay in one generation, while the
// maintainer starts one per publication: blocks that write one key many
// times and delete what they just wrote, published every block and every
// third, must leave the two on the same root, and every published
// snapshot must still hold its own height's content after all later
// blocks went through the nodes it shares.
func TestAsyncRootMatchesSyncAtEveryHeight(t *testing.T) {
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("PublishEvery=%d", every), func(t *testing.T) {
			m, err := New(Config{Signer: cryptoutil.MustNewSigner("endorser"), PublishEvery: every})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			var mu sync.Mutex
			published := make(map[uint64]Update)
			m.Subscribe(func(up Update) {
				mu.Lock()
				published[up.Root.Height] = up
				mu.Unlock()
			})

			rng := rand.New(rand.NewSource(42))
			inline := mpt.New()
			live := map[string][]byte{}
			wantRoot := make(map[uint64]cryptoutil.Hash)
			wantContent := make(map[uint64]map[string][]byte)
			const blocks = 60
			for h := uint64(1); h <= blocks; h++ {
				ws := testWrites(rng, h, 25)
				// A hot key written again and again inside the block, its
				// last write a delete on every fourth block.
				hot := fmt.Sprintf("key-%03d", h%5)
				for i := 0; i < 6; i++ {
					w := state.VersionedWrite{
						Write:   txn.Write{Key: hot, Value: []byte(fmt.Sprintf("hot-%d-%d", h, i))},
						Version: txn.Version{BlockNum: h, TxNum: uint32(25 + i)},
					}
					if i == 5 && h%4 == 0 {
						w.Value = nil
					}
					ws = append(ws, w)
				}
				// Synchronous baseline: apply inline, rehash per block.
				for _, w := range ws {
					if w.Value == nil {
						inline.Delete([]byte(w.Key))
						delete(live, w.Key)
					} else {
						inline.Put([]byte(w.Key), w.Value)
						live[w.Key] = w.Value
					}
				}
				if h%uint64(every) == 0 {
					wantRoot[h] = inline.RootHash()
					content := make(map[string][]byte, len(live))
					for k, v := range live {
						content[k] = v
					}
					wantContent[h] = content
				}
				if err := m.Submit(h, ws); err != nil {
					t.Fatalf("Submit(%d): %v", h, err)
				}
			}
			if _, err := m.WaitFor(blocks, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(published) != blocks/every {
				t.Fatalf("published %d roots, want %d", len(published), blocks/every)
			}
			for h, want := range wantRoot {
				up := published[h]
				if up.Root.Root != want || up.Snap.RootHash() != want {
					t.Fatalf("height %d: async root %x (snapshot %x) != sync root %x", h, up.Root.Root, up.Snap.RootHash(), want)
				}
				if got := up.Snap.Len(); got != len(wantContent[h]) {
					t.Fatalf("height %d: snapshot holds %d keys, want %d", h, got, len(wantContent[h]))
				}
				for k, v := range wantContent[h] {
					if got, ok := up.Snap.Get([]byte(k)); !ok || string(got) != string(v) {
						t.Fatalf("height %d: snapshot Get(%s) = %q,%v, want %q", h, k, got, ok, v)
					}
				}
			}
		})
	}
}

func TestSignedRootVerifies(t *testing.T) {
	signer := cryptoutil.MustNewSigner("endorser")
	m, err := New(Config{Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Submit(1, testWrites(rand.New(rand.NewSource(1)), 1, 10)); err != nil {
		t.Fatal(err)
	}
	sr, err := m.WaitFor(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Verify(m.Public()); err != nil {
		t.Fatalf("signed root rejected: %v", err)
	}
	// A different height re-binds the digest: the signature must fail.
	forged := sr
	forged.Height++
	if err := forged.Verify(m.Public()); err == nil {
		t.Fatal("replayed root at a different height verified")
	}
	other := cryptoutil.MustNewSigner("other")
	if err := sr.Verify(other.Public()); err == nil {
		t.Fatal("root verified under the wrong key")
	}
}

func TestPublishEveryLagsRoots(t *testing.T) {
	m, err := New(Config{Signer: cryptoutil.MustNewSigner("endorser"), PublishEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rng := rand.New(rand.NewSource(2))
	for h := uint64(1); h <= 10; h++ {
		if err := m.Submit(h, testWrites(rng, h, 5)); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := m.WaitFor(8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Height != 8 {
		t.Fatalf("published height %d, want 8", sr.Height)
	}
	// Heights 9 and 10 applied but unpublished: bounded staleness.
	waitApplied(t, m, 10)
	st := m.Stats()
	if st.PublishedHeight != 8 || st.Published != 2 {
		t.Fatalf("stats = %+v, want published height 8 after 2 publications", st)
	}
}

func TestCloseSemantics(t *testing.T) {
	m, err := New(Config{Signer: cryptoutil.MustNewSigner("endorser")})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if err := m.Submit(1, nil); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := m.WaitFor(1, time.Second); err != ErrClosed {
		t.Fatalf("WaitFor after Close = %v, want ErrClosed", err)
	}
}

func waitApplied(t *testing.T, m *RootMaintainer, height uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().AppliedHeight < height {
		if time.Now().After(deadline) {
			t.Fatalf("maintainer stuck at applied height %d, want %d", m.Stats().AppliedHeight, height)
		}
		time.Sleep(time.Millisecond)
	}
}
