package mpt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestMemoizedRootMatchesUncached pins the memoization invariant: after
// every block of mixed puts, overwrites, and deletes the memoized root
// equals what a from-scratch rehash of the identical structure computes
// (caches cleared, every node re-encoded and re-hashed).
func TestMemoizedRootMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	for block := 0; block < 20; block++ {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(200))
			if rng.Intn(5) == 0 {
				tr.Delete([]byte(k))
				continue
			}
			tr.Put([]byte(k), []byte(fmt.Sprintf("val-%d-%d", block, i)))
		}
		got := tr.RootHash()
		clearCaches(tr.root)
		if want := tr.RootHash(); got != want {
			t.Fatalf("block %d: memoized root %x != uncached root %x", block, got, want)
		}
	}
}

// TestMemoizedRootMatchesFresh: without deletes (which deliberately
// leave branches un-collapsed), an incrementally-maintained trie reaches
// exactly the root a freshly-built trie computes — the property Quorum
// recovery's reseed-then-replay path relies on.
func TestMemoizedRootMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := New()
	live := map[string]string{}
	for block := 0; block < 10; block++ {
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(200))
			v := fmt.Sprintf("val-%d-%d", block, i)
			tr.Put([]byte(k), []byte(v))
			live[k] = v
		}
		fresh := New()
		for k, v := range live {
			fresh.Put([]byte(k), []byte(v))
		}
		if got, want := tr.RootHash(), fresh.RootHash(); got != want {
			t.Fatalf("block %d: memoized root %x != fresh root %x", block, got, want)
		}
	}
}

// TestSnapshotIsolation: a snapshot keeps serving the state it was
// captured at while the live trie moves on, and its proofs verify
// against its own root, not the live one.
func TestSnapshotIsolation(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
	}
	snap := tr.Snapshot()
	oldRoot := snap.RootHash()

	tr.Put([]byte("k00"), []byte("mutated"))
	tr.Delete([]byte("k01"))
	newRoot := tr.RootHash()
	if newRoot == oldRoot {
		t.Fatal("mutation did not change the live root")
	}

	if v, ok := snap.Get([]byte("k00")); !ok || string(v) != "v00" {
		t.Fatalf("snapshot leaked mutation: %q %v", v, ok)
	}
	if _, ok := snap.Get([]byte("k01")); !ok {
		t.Fatal("snapshot leaked deletion")
	}
	proof, ok := snap.Prove([]byte("k00"))
	if !ok {
		t.Fatal("snapshot Prove failed")
	}
	if err := VerifyProof(oldRoot, []byte("k00"), proof); err != nil {
		t.Fatalf("snapshot proof vs snapshot root: %v", err)
	}
	if err := VerifyProof(newRoot, []byte("k00"), proof); err == nil {
		t.Fatal("stale proof verified against the live root")
	}
}

// TestSnapshotConcurrentReads hammers one snapshot from many goroutines
// while the owner keeps mutating the live trie and capturing newer
// snapshots — the maintainer/proof-server access pattern. Run under
// -race this pins that a published snapshot is read-only.
func TestSnapshotConcurrentReads(t *testing.T) {
	tr := New()
	for i := 0; i < 200; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	snap := tr.Snapshot()
	root := snap.RootHash()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("k%03d", rng.Intn(200)))
				proof, ok := snap.Prove(k)
				if !ok {
					t.Errorf("Prove(%s) failed on snapshot", k)
					return
				}
				if err := VerifyProof(root, k, proof); err != nil {
					t.Errorf("VerifyProof(%s): %v", k, err)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i%200)), []byte(fmt.Sprintf("w%d", i)))
		tr.Snapshot()
	}
	close(stop)
	wg.Wait()
}

// BenchmarkRootHash pins the memoization win: after a K-key block the
// memoized trie re-hashes only the mutated paths, while mode=rebuild
// models the seed behaviour (every cache invalidated, whole-trie
// rehash) on the identical mutation.
func BenchmarkRootHash(b *testing.B) {
	const keys = 20_000
	const blockKeys = 100
	build := func() *Trie {
		tr := New()
		for i := 0; i < keys; i++ {
			tr.Put([]byte(fmt.Sprintf("acct%08d", i)), []byte(fmt.Sprintf("balance-%d", i)))
		}
		tr.RootHash()
		return tr
	}
	mutate := func(tr *Trie, round int) {
		for i := 0; i < blockKeys; i++ {
			k := (round*blockKeys + i) % keys
			// Appendf, not []byte(Sprintf(…)): the conversion of a value the
			// trie keeps would move to the heap and hide its copy here.
			tr.Put([]byte(fmt.Sprintf("acct%08d", k)), fmt.Appendf(nil, "bal-%d-%d", round, i))
		}
	}
	b.Run("mode=memoized", func(b *testing.B) {
		tr := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate(tr, i)
			tr.RootHash()
		}
	})
	// mode=published is the root maintainer's loop — a block of puts, then
	// Snapshot — so every block starts a generation and copies each node
	// on its paths once. mode=memoized never snapshots, so it copies
	// nothing at all. At -benchtime=200x the blocks cover every key once
	// and allocs/op is exact (CI gates it).
	b.Run("mode=published", func(b *testing.B) {
		tr := build()
		tr.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate(tr, i)
			tr.Snapshot()
		}
	})
	b.Run("mode=rebuild", func(b *testing.B) {
		tr := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mutate(tr, i)
			clearCaches(tr.root)
			tr.RootHash()
		}
	})
}

// clearCaches invalidates every memoized hash — the whole-trie rehash
// baseline the benchmark compares against.
func clearCaches(n node) {
	if n == nil {
		return
	}
	*n.cacheRef() = hashCache{}
	switch n := n.(type) {
	case *extNode:
		clearCaches(n.child)
	case *branchNode:
		for _, c := range n.children {
			clearCaches(c)
		}
	}
}
