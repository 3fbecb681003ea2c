package mpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/israce"
)

// The reference: the pure copy-on-write trie this package had before nodes
// carried a generation — every Put and Delete allocates fresh nodes along
// the whole path and shares the rest, every hashed node is serialized into
// a fresh buffer, parents before children. Nothing below is shared with
// the implementation except the node types and appendBytes, so a defect in
// the in-place rule, in the children-first hashing order or in the reused
// buffer shows as a root that differs.

type refTrie struct{ root node }

func (t *refTrie) put(key, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	t.root = refPut(t.root, nibbles(key), v)
}

func (t *refTrie) del(key []byte) { t.root, _ = refDel(t.root, nibbles(key)) }

func (t *refTrie) rootHash() cryptoutil.Hash { return refHash(t.root) }

func refPut(n node, path []byte, value []byte) node {
	switch n := n.(type) {
	case nil:
		return &leafNode{path: path, value: value}
	case *leafNode:
		if bytes.Equal(n.path, path) {
			return &leafNode{path: path, value: value}
		}
		return refSplitInsert(n.path, n.value, path, value)
	case *extNode:
		cp := commonPrefix(n.path, path)
		if cp == len(n.path) {
			return &extNode{path: n.path, child: refPut(n.child, path[cp:], value)}
		}
		branch := &branchNode{}
		extRest := n.path[cp:]
		if len(extRest) == 1 {
			branch.children[extRest[0]] = n.child
		} else {
			branch.children[extRest[0]] = &extNode{path: extRest[1:], child: n.child}
		}
		keyRest := path[cp:]
		if len(keyRest) == 0 {
			branch.value = value
		} else {
			branch.children[keyRest[0]] = &leafNode{path: keyRest[1:], value: value}
		}
		if cp == 0 {
			return branch
		}
		return &extNode{path: path[:cp:cp], child: branch}
	case *branchNode:
		if len(path) == 0 {
			nb := *n
			nb.value = value
			nb.cache = hashCache{}
			return &nb
		}
		nb := *n
		nb.children[path[0]] = refPut(n.children[path[0]], path[1:], value)
		nb.cache = hashCache{}
		return &nb
	default:
		panic(fmt.Sprintf("mpt: unknown node %T", n))
	}
}

func refSplitInsert(aPath, aVal, bPath, bVal []byte) node {
	cp := commonPrefix(aPath, bPath)
	branch := &branchNode{}
	aRest, bRest := aPath[cp:], bPath[cp:]
	switch {
	case len(aRest) == 0:
		branch.value = aVal
	default:
		branch.children[aRest[0]] = &leafNode{path: aRest[1:], value: aVal}
	}
	switch {
	case len(bRest) == 0:
		branch.value = bVal
	default:
		branch.children[bRest[0]] = &leafNode{path: bRest[1:], value: bVal}
	}
	if cp == 0 {
		return branch
	}
	return &extNode{path: aPath[:cp:cp], child: branch}
}

func refDel(n node, path []byte) (node, bool) {
	switch n := n.(type) {
	case nil:
		return nil, false
	case *leafNode:
		if bytes.Equal(n.path, path) {
			return nil, true
		}
		return n, false
	case *extNode:
		if len(path) < len(n.path) || !bytes.Equal(path[:len(n.path)], n.path) {
			return n, false
		}
		child, ok := refDel(n.child, path[len(n.path):])
		if !ok {
			return n, false
		}
		if child == nil {
			return nil, true
		}
		return &extNode{path: n.path, child: child}, true
	case *branchNode:
		nb := *n
		nb.cache = hashCache{}
		if len(path) == 0 {
			if n.value == nil {
				return n, false
			}
			nb.value = nil
		} else {
			child, ok := refDel(n.children[path[0]], path[1:])
			if !ok {
				return n, false
			}
			nb.children[path[0]] = child
		}
		if nb.value == nil {
			empty := true
			for _, c := range nb.children {
				if c != nil {
					empty = false
					break
				}
			}
			if empty {
				return nil, true
			}
		}
		return &nb, true
	default:
		panic(fmt.Sprintf("mpt: unknown node %T", n))
	}
}

func refEncoded(n node) []byte {
	switch n := n.(type) {
	case *leafNode:
		out := []byte{tagLeaf}
		out = appendBytes(out, n.path)
		return appendBytes(out, n.value)
	case *extNode:
		out := []byte{tagExt}
		out = appendBytes(out, n.path)
		h := refHash(n.child)
		return append(out, h[:]...)
	case *branchNode:
		out := []byte{tagBranch}
		for _, c := range n.children {
			if c == nil {
				out = append(out, 0)
				continue
			}
			out = append(out, 1)
			h := refHash(c)
			out = append(out, h[:]...)
		}
		return appendBytes(out, n.value)
	default:
		panic(fmt.Sprintf("mpt: unknown node %T", n))
	}
}

func refHash(n node) cryptoutil.Hash {
	if n == nil {
		return cryptoutil.ZeroHash
	}
	c := n.cacheRef()
	if c.hashed {
		return c.hash
	}
	c.hash = cryptoutil.HashBytes(refEncoded(n))
	c.hashed = true
	return c.hash
}

// historyKeys is the key universe of a random history: short keys that
// are prefixes of one another (branch-with-value, extension splits), the
// empty key, and a spread of ordinary ones.
func historyKeys() [][]byte {
	keys := [][]byte{{}, []byte("a"), []byte("ab"), []byte("abc"), []byte("abcd"), []byte("abd"), []byte("b")}
	for i := 0; i < 110; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%03d", i)))
	}
	return keys
}

// view is a Snapshot with everything it answered when it was taken.
type view struct {
	snap    *Snapshot
	root    cryptoutil.Hash
	content map[string][]byte
	storage int64
}

// check asks the snapshot every question again and compares.
func (v *view) check(keys [][]byte) error {
	if got := v.snap.RootHash(); got != v.root {
		return fmt.Errorf("RootHash %x, was %x", got, v.root)
	}
	if got := v.snap.Len(); got != len(v.content) {
		return fmt.Errorf("Len %d, was %d", got, len(v.content))
	}
	if got := v.snap.StorageBytes(); got != v.storage {
		return fmt.Errorf("StorageBytes %d, was %d", got, v.storage)
	}
	for _, k := range keys {
		want, present := v.content[string(k)]
		got, ok := v.snap.Get(k)
		if ok != present || !bytes.Equal(got, want) {
			return fmt.Errorf("Get(%q) = %q,%v, was %q,%v", k, got, ok, want, present)
		}
		proof, ok := v.snap.Prove(k)
		if ok != present {
			return fmt.Errorf("Prove(%q) ok=%v, was %v", k, ok, present)
		}
		if !present {
			continue
		}
		if !bytes.Equal(proof.Value, want) {
			return fmt.Errorf("Prove(%q) value %q, was %q", k, proof.Value, want)
		}
		if err := VerifyProof(v.root, k, proof); err != nil {
			return fmt.Errorf("VerifyProof(%q): %v", k, err)
		}
	}
	return nil
}

// history drives one seeded sequence of puts, overwrites, deletes, RootHash
// and Snapshot calls through the trie and the reference. Writes come in
// runs that favour a few hot keys, as a skewed block does, so nodes are
// written through many times between two hashes. With everyStep the roots
// are compared after every operation; without it only where the history
// itself asks for a root, so whole blocks go by unhashed and the number of
// hashes each side spends on them can be compared.
func history(t *testing.T, seed int64, deletes, everyStep bool) {
	rng := rand.New(rand.NewSource(seed))
	keys := historyKeys()
	hot := []int{rng.Intn(len(keys)), rng.Intn(len(keys)), rng.Intn(len(keys)), 2, 3}
	tr, ref := New(), &refTrie{}
	content := map[string][]byte{}
	var views []*view

	compareRoots := func(step int, what string) cryptoutil.Hash {
		before := cryptoutil.HashOps()
		got := tr.RootHash()
		mid := cryptoutil.HashOps()
		want := ref.rootHash()
		after := cryptoutil.HashOps()
		if got != want {
			t.Fatalf("seed %d step %d (%s): root %x, reference %x", seed, step, what, got, want)
		}
		if mid-before != after-mid {
			t.Fatalf("seed %d step %d (%s): %d hashes, reference %d", seed, step, what, mid-before, after-mid)
		}
		return got
	}

	for step := 0; step < 300; step++ {
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(2) == 0 {
			k = keys[hot[rng.Intn(len(hot))]]
		}
		what := "put"
		switch op := rng.Intn(100); {
		case op < 5:
			what = "snapshot"
			root := compareRoots(step, what)
			snap := tr.Snapshot()
			if snap.RootHash() != root {
				t.Fatalf("seed %d step %d: snapshot root %x, trie root %x", seed, step, snap.RootHash(), root)
			}
			v := &view{snap: snap, root: root, content: map[string][]byte{}, storage: snap.StorageBytes()}
			for k, val := range content {
				v.content[k] = val
			}
			if err := v.check(keys); err != nil {
				t.Fatalf("seed %d step %d: fresh snapshot: %v", seed, step, err)
			}
			views = append(views, v)
		case op < 12:
			what = "root"
			compareRoots(step, what)
		case op < 27 && deletes:
			what = "delete"
			tr.Delete(k)
			ref.del(k)
			delete(content, string(k))
		default:
			val := []byte(fmt.Sprintf("v-%d-%d", seed, step))
			if rng.Intn(10) == 0 {
				val = []byte{} // present and empty, not absent
			}
			tr.Put(k, val)
			ref.put(k, val)
			content[string(k)] = val
		}
		if everyStep {
			compareRoots(step, what)
		}
	}
	compareRoots(300, "end")

	for k, want := range content {
		if got, ok := tr.Get([]byte(k)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: final Get(%q) = %q,%v want %q", seed, k, got, ok, want)
		}
	}
	if tr.Len() != len(content) {
		t.Fatalf("seed %d: final Len %d, want %d", seed, tr.Len(), len(content))
	}
	for i, v := range views {
		if err := v.check(keys); err != nil {
			t.Fatalf("seed %d: snapshot %d of %d after all later writes: %v", seed, i, len(views), err)
		}
	}
	if !deletes {
		// Deletes leave branches un-collapsed; without them the shape is
		// a function of the content alone.
		fresh := New()
		for k, v := range content {
			fresh.Put([]byte(k), v)
		}
		if got, want := tr.RootHash(), fresh.RootHash(); got != want {
			t.Fatalf("seed %d: incremental root %x, from-scratch root %x", seed, got, want)
		}
		if got, want := tr.NodeBytes(), fresh.NodeBytes(); got != want {
			t.Fatalf("seed %d: incremental NodeBytes %d, from-scratch %d", seed, got, want)
		}
	}
}

// TestIncrementalMatchesReference: the trie that changes current-generation
// nodes in place is, at every seed, indistinguishable from the one that
// copies every path — same root after every operation, same number of
// hashes per block, every snapshot unmoved by every later write.
func TestIncrementalMatchesReference(t *testing.T) {
	seeds := int64(50)
	if israce.Enabled {
		seeds = 5 // one goroutine, nothing for the detector; the concurrent half is below
	}
	for seed := int64(1); seed <= seeds; seed++ {
		history(t, seed, true, false)
		history(t, seed, false, true)
	}
}

// TestGoldenRoot pins the bytes hashed: this root was computed by the
// copy-on-write trie at the commit before generations, over the same
// content.
func TestGoldenRoot(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Put([]byte(fmt.Sprintf("chk:acct%08d", i*7919%1000)), []byte(fmt.Sprintf("balance-%d", i)))
		if i%40 == 39 {
			tr.Snapshot()
		}
		if i%9 == 8 {
			tr.Delete([]byte(fmt.Sprintf("chk:acct%08d", (i-4)*7919%1000)))
		}
	}
	tr.Put([]byte("chk"), nil)
	const want = "89068b40b5be8c9b4e40f28e394b9d635a29f5af3ba95279cb837b8ebf97926b"
	root := tr.RootHash()
	if got := fmt.Sprintf("%x", root[:]); got != want {
		t.Fatalf("root %s, want %s", got, want)
	}
	if got, want := tr.NodeBytes(), int64(22114); got != want {
		t.Fatalf("NodeBytes %d, want %d", got, want)
	}
	if got, want := tr.StorageBytes(), int64(37570); got != want {
		t.Fatalf("StorageBytes %d, want %d", got, want)
	}
	if got, want := tr.MaxDepth(), 9; got != want {
		t.Fatalf("MaxDepth %d, want %d", got, want)
	}
}

// TestSnapshotsHoldUnderConcurrentWrites is the concurrent half of the
// invariant, for the race detector: readers keep re-checking every
// snapshot published so far while the owner writes block after block of
// hot-key overwrites and deletes through the nodes those snapshots share
// with the live trie.
func TestSnapshotsHoldUnderConcurrentWrites(t *testing.T) {
	keys := historyKeys()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		content := map[string][]byte{}
		var (
			mu    sync.Mutex
			views []*view
			wg    sync.WaitGroup
		)
		stop := make(chan struct{})
		for g := 0; g < 3; g++ {
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
					mu.Lock()
					var v *view
					if len(views) > 0 {
						v = views[rng.Intn(len(views))]
					}
					mu.Unlock()
					if v == nil {
						continue
					}
					if err := v.check(keys); err != nil {
						t.Errorf("seed %d: snapshot at root %x read while the owner writes: %v", seed, v.root, err)
						return
					}
				}
			}(seed*10 + int64(g))
		}
		for block := 0; block < 40; block++ {
			for i := 0; i < 25; i++ {
				k := keys[rng.Intn(len(keys))]
				if i%3 == 0 {
					k = keys[block%5+1]
				}
				if rng.Intn(6) == 0 {
					tr.Delete(k)
					delete(content, string(k))
					continue
				}
				val := []byte(fmt.Sprintf("v-%d-%d", block, i))
				tr.Put(k, val)
				content[string(k)] = val
			}
			snap := tr.Snapshot()
			v := &view{snap: snap, root: snap.RootHash(), content: map[string][]byte{}, storage: snap.StorageBytes()}
			for k, val := range content {
				v.content[k] = val
			}
			mu.Lock()
			views = append(views, v)
			mu.Unlock()
		}
		close(stop)
		wg.Wait()
		for i, v := range views {
			if err := v.check(keys); err != nil {
				t.Fatalf("seed %d: snapshot %d after the last write: %v", seed, i, err)
			}
		}
	}
}

// TestBlockOfOverwritesAllocs pins what a block costs the maintainer: 60
// overwrites and a Snapshot on a 4 000-key trie, the keys drawn as the
// Smallbank generator draws accounts (Zipf, s = 2), so a few hot paths are
// written through again and again. Beyond each key's value copy, a node on
// a written path is copied once per block, not once per key passing
// through it; the copy-on-write trie spent 732 on the same block
// (12.2 per key) where this one spends 79: 60 value copies, 18 nodes, the
// Snapshot.
func TestBlockOfOverwritesAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const keys, blockKeys = 4000, 60
	tr := New()
	key := func(i uint64) []byte { return []byte(fmt.Sprintf("chk:acct%08d", i)) }
	for i := uint64(0); i < keys; i++ {
		tr.Put(key(i), []byte("balance"))
	}
	tr.Snapshot()
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 2, 1, keys-1)
	block := make([][]byte, blockKeys)
	for i := range block {
		block[i] = key(zipf.Uint64())
	}
	val := []byte("12345678")
	perBlock := testing.AllocsPerRun(50, func() {
		for _, k := range block {
			tr.Put(k, val)
		}
		tr.Snapshot()
	})
	t.Logf("%.0f allocs per block, %.2f per key", perBlock, perBlock/blockKeys)
	if perBlock > 79 {
		t.Fatalf("%.0f allocs for a %d-key block (%.2f per key), want ≤ 79", perBlock, blockKeys, perBlock/blockKeys)
	}
}
