// Package mpt implements a Merkle Patricia Trie, the authenticated state
// index used by Ethereum and Quorum. Keys are split into 4-bit nibbles;
// the trie has three node kinds — branch (16 children + optional value),
// extension (shared nibble run), and leaf. Every node is identified by the
// SHA-256 hash of its serialized form, so the root hash commits to the
// entire state and any access path doubles as an integrity proof.
//
// Serialization is a compact custom format rather than Ethereum's RLP; the
// paper's storage-overhead findings (Fig 13) depend on the trie *shape*
// (depth × per-node hashing), which is preserved exactly.
//
// Mutation copies only what somebody else can see. Every node carries the
// generation it was made in; Put and Delete change a node of the current
// generation in place and copy a node of an earlier one, and Snapshot
// starts a new generation. So a block of K writes between two snapshots
// copies each node on its paths once, however many of the K keys pass
// through it, and hashes each once, when the root is next asked for: the
// hashing the paper charges a ledger for (Fig 11) is all still done, the
// copying it never asked for is not.
package mpt

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"dichotomy/internal/cryptoutil"
)

// Trie is a Merkle Patricia Trie. It is not safe for concurrent mutation;
// systems guard it with their commit lock, mirroring geth's usage.
// Snapshot captures an immutable view that IS safe for concurrent reads.
//
// The invariant that makes it so: a node stamped with the current
// generation is reachable from this trie's live root only — never from a
// Snapshot — and every ancestor of such a node carries the current
// generation too. Put and Delete keep it by stamping what they create,
// copying a node of an earlier generation before changing it (the copy is
// linked in by its parent, which the same descent has copied or may change
// in place), and never linking a node they have changed in place under a
// second parent; Snapshot keeps it by advancing the generation after
// capturing the root, which freezes everything the captured root reaches.
// Readers of a Snapshot synchronize with nothing, so a write that breaks
// this rule is a data race on a published view.
type Trie struct {
	root node
	// gen is the current generation; see the invariant above.
	gen uint64
	// path is the scratch a mutation expands its key's nibbles into. No
	// node keeps a slice of it: a node that outlives the call copies the
	// run it needs.
	path []byte
	// rebuildCount tracks how many times the root commitment actually
	// had to be recomputed; the record-size experiment (Fig 11) reads it.
	rebuilds int
}

type node interface {
	// encode appends the canonical serialization used for hashing to dst.
	encode(dst []byte) []byte
	// cacheRef exposes the node's memoized-hash slot.
	cacheRef() *hashCache
}

// hashCache memoizes a node's commitment. A mutation clears the cache of
// every node on its path — the ones it changes in place and the fresh
// copies alike — and shares everything else, so a filled cache is valid
// until the owner next writes through the node: RootHash after a K-key
// block re-hashes only the O(K·depth) nodes on written paths, and a
// fully-hashed subgraph of an earlier generation can be read from any
// number of goroutines without synchronization.
type hashCache struct {
	hash   cryptoutil.Hash
	hashed bool
}

type (
	leafNode struct {
		path  []byte // remaining nibbles
		value []byte
		gen   uint64
		cache hashCache
	}
	extNode struct {
		path  []byte // shared nibbles
		child node
		gen   uint64
		cache hashCache
	}
	branchNode struct {
		children [16]node
		value    []byte // set when a key terminates at this branch
		gen      uint64
		cache    hashCache
	}
)

func (n *leafNode) cacheRef() *hashCache   { return &n.cache }
func (n *extNode) cacheRef() *hashCache    { return &n.cache }
func (n *branchNode) cacheRef() *hashCache { return &n.cache }

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// nibbles expands a byte key into 4-bit digits, high nibble first.
func nibbles(key []byte) []byte {
	return appendNibbles(make([]byte, 0, len(key)*2), key)
}

func appendNibbles(dst, key []byte) []byte {
	for _, b := range key {
		dst = append(dst, b>>4, b&0x0f)
	}
	return dst
}

// keyPath expands key into the trie's scratch, valid until the next
// mutation.
func (t *Trie) keyPath(key []byte) []byte {
	t.path = appendNibbles(t.path[:0], key)
	return t.path
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Get returns the value stored under key and whether it exists.
func (t *Trie) Get(key []byte) ([]byte, bool) {
	return get(t.root, nibbles(key))
}

func get(n node, path []byte) ([]byte, bool) {
	switch n := n.(type) {
	case nil:
		return nil, false
	case *leafNode:
		if bytes.Equal(n.path, path) {
			return n.value, true
		}
		return nil, false
	case *extNode:
		if len(path) < len(n.path) || !bytes.Equal(path[:len(n.path)], n.path) {
			return nil, false
		}
		return get(n.child, path[len(n.path):])
	case *branchNode:
		if len(path) == 0 {
			if n.value == nil {
				return nil, false
			}
			return n.value, true
		}
		return get(n.children[path[0]], path[1:])
	default:
		panic(fmt.Sprintf("mpt: unknown node %T", n))
	}
}

// Put inserts or replaces the value for key. Values are copied. An empty
// value is a legal stored value (distinct from absence, which branch nodes
// represent with a nil slice internally).
func (t *Trie) Put(key, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	t.root = t.put(t.root, t.keyPath(key), v)
}

// The own functions return the node a mutation may write through: n itself
// when it was made in the current generation, a copy stamped with the
// current generation otherwise. Either way its memoized hash is cleared.
func (t *Trie) ownLeaf(n *leafNode) *leafNode {
	if n.gen != t.gen {
		n = &leafNode{path: n.path, value: n.value, gen: t.gen}
	}
	n.cache = hashCache{}
	return n
}

func (t *Trie) ownExt(n *extNode) *extNode {
	if n.gen != t.gen {
		n = &extNode{path: n.path, child: n.child, gen: t.gen}
	}
	n.cache = hashCache{}
	return n
}

func (t *Trie) ownBranch(n *branchNode) *branchNode {
	if n.gen != t.gen {
		n = &branchNode{children: n.children, value: n.value, gen: t.gen}
	}
	n.cache = hashCache{}
	return n
}

// put returns the subtree n with path bound to value. path is a slice of
// the trie's scratch; path bytes a node keeps are copied or taken from the
// node they already live in (node paths are never written, only re-sliced,
// so nodes of any generation may share one).
func (t *Trie) put(n node, path []byte, value []byte) node {
	switch n := n.(type) {
	case nil:
		return &leafNode{path: bytes.Clone(path), value: value, gen: t.gen}
	case *leafNode:
		if bytes.Equal(n.path, path) {
			n = t.ownLeaf(n)
			n.value = value
			return n
		}
		// Two diverging paths: a branch at the divergence point, under an
		// extension when they share a prefix.
		cp := commonPrefix(n.path, path)
		branch := &branchNode{gen: t.gen}
		t.hang(branch, n.path[cp:], n.value)
		t.hang(branch, bytes.Clone(path[cp:]), value)
		return t.under(n.path[:cp:cp], branch)
	case *extNode:
		cp := commonPrefix(n.path, path)
		if cp == len(n.path) {
			child := t.put(n.child, path[cp:], value)
			n = t.ownExt(n)
			n.child = child
			return n
		}
		// Split the extension at the divergence point. The remainder of
		// its path goes under its first nibble.
		branch := &branchNode{gen: t.gen}
		if extRest := n.path[cp:]; len(extRest) == 1 {
			branch.children[extRest[0]] = n.child
		} else {
			branch.children[extRest[0]] = &extNode{path: extRest[1:], child: n.child, gen: t.gen}
		}
		t.hang(branch, bytes.Clone(path[cp:]), value)
		return t.under(n.path[:cp:cp], branch)
	case *branchNode:
		if len(path) == 0 {
			n = t.ownBranch(n)
			n.value = value
			return n
		}
		child := t.put(n.children[path[0]], path[1:], value)
		n = t.ownBranch(n)
		n.children[path[0]] = child
		return n
	default:
		panic(fmt.Sprintf("mpt: unknown node %T", n))
	}
}

// hang binds rest to value below a branch being built: in the branch's own
// value slot when rest is empty, in a new leaf under its first nibble
// otherwise. The leaf keeps rest[1:].
func (t *Trie) hang(branch *branchNode, rest, value []byte) {
	if len(rest) == 0 {
		branch.value = value
		return
	}
	branch.children[rest[0]] = &leafNode{path: rest[1:], value: value, gen: t.gen}
}

// under returns branch, behind an extension when the paths it splits share
// a prefix.
func (t *Trie) under(prefix []byte, branch *branchNode) node {
	if len(prefix) == 0 {
		return branch
	}
	return &extNode{path: prefix, child: branch, gen: t.gen}
}

// Delete removes key from the trie. Absent keys are a no-op. The resulting
// structure is left un-collapsed (a branch with one child is kept), which
// changes no hashes of live data and keeps the implementation compact.
func (t *Trie) Delete(key []byte) {
	t.root, _ = t.del(t.root, t.keyPath(key))
}

// del returns the subtree n without path, and whether path was there. A
// miss writes nothing: nodes are taken over only on the way back up from a
// hit.
func (t *Trie) del(n node, path []byte) (node, bool) {
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
		child, ok := t.del(n.child, path[len(n.path):])
		if !ok {
			return n, false
		}
		if child == nil {
			return nil, true
		}
		n = t.ownExt(n)
		n.child = child
		return n, true
	case *branchNode:
		if len(path) == 0 {
			if n.value == nil {
				return n, false
			}
			n = t.ownBranch(n)
			n.value = nil
		} else {
			child, ok := t.del(n.children[path[0]], path[1:])
			if !ok {
				return n, false
			}
			n = t.ownBranch(n)
			n.children[path[0]] = child
		}
		// Collapse to nil when completely empty.
		if n.value == nil && n.children == [16]node{} {
			return nil, true
		}
		return n, true
	default:
		panic(fmt.Sprintf("mpt: unknown node %T", n))
	}
}

// --- hashing & serialization ---

const (
	tagLeaf   = 0x01
	tagExt    = 0x02
	tagBranch = 0x03
)

func appendBytes(dst, b []byte) []byte {
	dst = append(dst, byte(len(b)>>8), byte(len(b)))
	return append(dst, b...)
}

func (n *leafNode) encode(dst []byte) []byte {
	dst = append(dst, tagLeaf)
	dst = appendBytes(dst, n.path)
	return appendBytes(dst, n.value)
}

func (n *extNode) encode(dst []byte) []byte {
	dst = append(dst, tagExt)
	dst = appendBytes(dst, n.path)
	h := hashNode(n.child)
	return append(dst, h[:]...)
}

func (n *branchNode) encode(dst []byte) []byte {
	dst = append(dst, tagBranch)
	for i := range n.children {
		c := n.children[i]
		if c == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		h := hashNode(c)
		dst = append(dst, h[:]...)
	}
	return appendBytes(dst, n.value)
}

// encPool holds the buffers hashing passes serialize nodes into. The
// buffer is pooled, not a hasher: a hashing pass may start on any
// goroutine (a prover walking a trie nobody has hashed yet), and writing
// piecewise into a hash.Hash makes the pieces escape.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEnc keeps one outsized record (Fig 11 stores 100 KB values)
// from pinning its buffer in the pool for the life of the process.
const maxPooledEnc = 1 << 16

func hashNode(n node) cryptoutil.Hash {
	if n == nil {
		return cryptoutil.ZeroHash
	}
	c := n.cacheRef()
	if !c.hashed {
		buf := encPool.Get().(*[]byte)
		rehash(n, buf)
		if cap(*buf) > maxPooledEnc {
			*buf = nil
		}
		encPool.Put(buf)
	}
	return c.hash
}

// rehash memoizes the hash of n and of every unhashed node below it, each
// serialized into buf in turn. Children go first: once they are memoized
// n's own encoding only copies their hashes, so nothing below n still
// needs the buffer when n overwrites it.
func rehash(n node, buf *[]byte) {
	if n == nil {
		return
	}
	c := n.cacheRef()
	if c.hashed {
		return
	}
	switch n := n.(type) {
	case *extNode:
		rehash(n.child, buf)
	case *branchNode:
		for i := range n.children {
			rehash(n.children[i], buf)
		}
	}
	*buf = n.encode((*buf)[:0])
	c.hash = cryptoutil.HashBytes(*buf)
	c.hashed = true
}

// RootHash returns the root commitment, recomputing only what a mutation
// invalidated: after a K-key block only the O(K·depth) nodes on written
// paths lack a memoized hash — the incremental maintenance the paper
// contrasts with Quorum's whole-trie reconstruction per commit. As a side
// effect every reachable node's cache is filled, which is what makes a
// subsequent Snapshot safe for lock-free concurrent reads.
func (t *Trie) RootHash() cryptoutil.Hash {
	if t.root == nil {
		return cryptoutil.ZeroHash
	}
	if !t.root.cacheRef().hashed {
		t.rebuilds++
	}
	return hashNode(t.root)
}

// Rebuilds reports how many root recomputations actually happened: calls
// to RootHash on an unchanged trie are cache hits and do not count.
func (t *Trie) Rebuilds() int { return t.rebuilds }

// Snapshot is an immutable point-in-time view of a trie. Capturing starts a
// new generation, so later writes to the parent trie copy every captured
// node they would change (the Trie invariant); capturing also forces every
// reachable node's hash cache (via RootHash), so Get and Prove on a
// Snapshot perform no writes at all and are safe from any number of
// goroutines while the owner keeps mutating the live trie.
type Snapshot struct {
	root node
	hash cryptoutil.Hash
}

// Snapshot captures the trie's current state. O(1) plus the incremental
// RootHash cost; the returned view shares structure with the live trie.
// Every node it reaches is frozen from here on: the generation advances,
// so no later Put or Delete finds one it may change in place.
func (t *Trie) Snapshot() *Snapshot {
	s := &Snapshot{root: t.root, hash: t.RootHash()}
	t.gen++
	return s
}

// RootHash returns the commitment the snapshot was captured at.
func (s *Snapshot) RootHash() cryptoutil.Hash { return s.hash }

// Get returns the value stored under key at the snapshot.
func (s *Snapshot) Get(key []byte) ([]byte, bool) { return get(s.root, nibbles(key)) }

// Prove returns the integrity proof for key at the snapshot. The proof
// shares underlying byte storage with the trie; callers must not mutate
// it.
func (s *Snapshot) Prove(key []byte) (Proof, bool) { return prove(s.root, key) }

// Len returns the number of keys stored at the snapshot.
func (s *Snapshot) Len() int { return countKeys(s.root) }

// StorageBytes is Trie.StorageBytes at the snapshot.
func (s *Snapshot) StorageBytes() int64 { return storageBytes(s.root) }

// NodeBytes returns the total serialized size of every node in the trie —
// the storage footprint of the authenticated index (Fig 13).
func (t *Trie) NodeBytes() int64 {
	return nodeBytes(t.root)
}

// StorageBytes models Ethereum's node store, where every trie node is a
// separate engine record keyed by its 32-byte hash: per node the cost is
// 32 (key) + len(encoding). Fig 13's "storage overhead to achieve tamper
// evidence" is StorageBytes minus the raw key/value payload.
func (t *Trie) StorageBytes() int64 {
	return storageBytes(t.root)
}

func storageBytes(n node) int64 {
	if n == nil {
		return 0
	}
	size := int64(32 + len(n.encode(nil)))
	switch n := n.(type) {
	case *extNode:
		size += storageBytes(n.child)
	case *branchNode:
		for _, c := range n.children {
			size += storageBytes(c)
		}
	}
	return size
}

func nodeBytes(n node) int64 {
	if n == nil {
		return 0
	}
	size := int64(len(n.encode(nil)))
	switch n := n.(type) {
	case *extNode:
		size += nodeBytes(n.child)
	case *branchNode:
		for _, c := range n.children {
			size += nodeBytes(c)
		}
	}
	return size
}

// Len returns the number of stored keys.
func (t *Trie) Len() int { return countKeys(t.root) }

func countKeys(n node) int {
	switch n := n.(type) {
	case nil:
		return 0
	case *leafNode:
		return 1
	case *extNode:
		return countKeys(n.child)
	case *branchNode:
		total := 0
		if n.value != nil {
			total++
		}
		for _, c := range n.children {
			total += countKeys(c)
		}
		return total
	default:
		return 0
	}
}

// MaxDepth returns the deepest node level; tests use it to check the
// prefix-compression behaviour the paper contrasts against MBT's fixed
// depth.
func (t *Trie) MaxDepth() int { return depth(t.root) }

func depth(n node) int {
	switch n := n.(type) {
	case nil:
		return 0
	case *leafNode:
		return 1
	case *extNode:
		return 1 + depth(n.child)
	case *branchNode:
		max := 0
		for _, c := range n.children {
			if d := depth(c); d > max {
				max = d
			}
		}
		return 1 + max
	default:
		return 0
	}
}

// --- proofs ---

// ProofStep is one node encoding along the path from root to the key.
type ProofStep struct {
	Encoding []byte
}

// Proof is an authenticated path for a key.
type Proof struct {
	Steps []ProofStep
	Value []byte
}

// ErrInvalidProof is returned when a proof does not verify.
var ErrInvalidProof = errors.New("mpt: invalid proof")

// Prove returns the integrity proof for key, or false if the key is absent.
// (Absence proofs are not needed by the experiments and are omitted.)
func (t *Trie) Prove(key []byte) (Proof, bool) { return prove(t.root, key) }

func prove(root node, key []byte) (Proof, bool) {
	var proof Proof
	n := root
	path := nibbles(key)
	for {
		switch cur := n.(type) {
		case nil:
			return Proof{}, false
		case *leafNode:
			if !bytes.Equal(cur.path, path) {
				return Proof{}, false
			}
			proof.Steps = append(proof.Steps, ProofStep{Encoding: cur.encode(nil)})
			proof.Value = cur.value
			return proof, true
		case *extNode:
			if len(path) < len(cur.path) || !bytes.Equal(path[:len(cur.path)], cur.path) {
				return Proof{}, false
			}
			proof.Steps = append(proof.Steps, ProofStep{Encoding: cur.encode(nil)})
			path = path[len(cur.path):]
			n = cur.child
		case *branchNode:
			proof.Steps = append(proof.Steps, ProofStep{Encoding: cur.encode(nil)})
			if len(path) == 0 {
				if cur.value == nil {
					return Proof{}, false
				}
				proof.Value = cur.value
				return proof, true
			}
			n = cur.children[path[0]]
			path = path[1:]
		}
	}
}

// VerifyProof checks that proof binds key to proof.Value under root. It
// re-derives each step's hash and confirms the chain of commitments.
func VerifyProof(root cryptoutil.Hash, key []byte, proof Proof) error {
	if len(proof.Steps) == 0 {
		return ErrInvalidProof
	}
	want := root
	path := nibbles(key)
	for i, step := range proof.Steps {
		if cryptoutil.HashBytes(step.Encoding) != want {
			return fmt.Errorf("%w: step %d hash mismatch", ErrInvalidProof, i)
		}
		n, err := decodeNode(step.Encoding)
		if err != nil {
			return err
		}
		switch n := n.(type) {
		case *proofLeaf:
			if !bytes.Equal(n.path, path) || !bytes.Equal(n.value, proof.Value) {
				return fmt.Errorf("%w: leaf mismatch", ErrInvalidProof)
			}
			return nil
		case *proofExt:
			if len(path) < len(n.path) || !bytes.Equal(path[:len(n.path)], n.path) {
				return fmt.Errorf("%w: extension path mismatch", ErrInvalidProof)
			}
			path = path[len(n.path):]
			want = n.child
		case *proofBranch:
			if len(path) == 0 {
				if !bytes.Equal(n.value, proof.Value) {
					return fmt.Errorf("%w: branch value mismatch", ErrInvalidProof)
				}
				return nil
			}
			child := n.children[path[0]]
			if child == cryptoutil.ZeroHash {
				return fmt.Errorf("%w: missing branch child", ErrInvalidProof)
			}
			path = path[1:]
			want = child
		}
	}
	return fmt.Errorf("%w: proof ended before key resolved", ErrInvalidProof)
}

// Decoded proof node forms: children are hashes, not pointers.
type (
	proofLeaf struct {
		path, value []byte
	}
	proofExt struct {
		path  []byte
		child cryptoutil.Hash
	}
	proofBranch struct {
		children [16]cryptoutil.Hash
		value    []byte
	}
)

func readBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 2 {
		return nil, nil, ErrInvalidProof
	}
	n := int(data[0])<<8 | int(data[1])
	if len(data) < 2+n {
		return nil, nil, ErrInvalidProof
	}
	return data[2 : 2+n], data[2+n:], nil
}

func decodeNode(enc []byte) (any, error) {
	if len(enc) == 0 {
		return nil, ErrInvalidProof
	}
	switch enc[0] {
	case tagLeaf:
		path, rest, err := readBytes(enc[1:])
		if err != nil {
			return nil, err
		}
		value, _, err := readBytes(rest)
		if err != nil {
			return nil, err
		}
		return &proofLeaf{path: path, value: value}, nil
	case tagExt:
		path, rest, err := readBytes(enc[1:])
		if err != nil {
			return nil, err
		}
		if len(rest) < 32 {
			return nil, ErrInvalidProof
		}
		var h cryptoutil.Hash
		copy(h[:], rest)
		return &proofExt{path: path, child: h}, nil
	case tagBranch:
		rest := enc[1:]
		var b proofBranch
		for i := 0; i < 16; i++ {
			if len(rest) < 1 {
				return nil, ErrInvalidProof
			}
			present := rest[0]
			rest = rest[1:]
			if present == 1 {
				if len(rest) < 32 {
					return nil, ErrInvalidProof
				}
				copy(b.children[i][:], rest)
				rest = rest[32:]
			}
		}
		value, _, err := readBytes(rest)
		if err != nil {
			return nil, err
		}
		if len(value) > 0 {
			b.value = value
		}
		return &b, nil
	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrInvalidProof, enc[0])
	}
}
