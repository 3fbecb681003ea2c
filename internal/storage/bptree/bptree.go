// Package bptree implements a copy-on-write B+tree storage engine — the
// stand-in for BoltDB, which backs etcd in the paper. Writers clone the
// path from the root (shadow paging, exactly Bolt's design); readers pin a
// root pointer and traverse an immutable snapshot, so reads never block and
// observe a consistent tree. A single writer mutex serializes mutations,
// matching Bolt's one-writer/many-readers model.
package bptree

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"

	"dichotomy/internal/storage"
)

// order is the maximum number of children per internal node. 64 keeps nodes
// around a cache line multiple without page management.
const order = 64

type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte // leaf only
	children []*node  // internal only
}

// Tree is a copy-on-write B+tree satisfying storage.Engine.
type Tree struct {
	root    atomic.Pointer[node]
	writeMu sync.Mutex
	count   atomic.Int64
	bytes   atomic.Int64
	closed  atomic.Bool
}

var _ storage.Engine = (*Tree)(nil)
var _ storage.Batch = (*Tree)(nil)

// New returns an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root.Store(&node{leaf: true})
	return t
}

// Get implements storage.Engine.
func (t *Tree) Get(key []byte) ([]byte, error) {
	if t.closed.Load() {
		return nil, storage.ErrClosed
	}
	n := t.root.Load()
	for !n.leaf {
		i := childIndex(n, key)
		n = n.children[i]
	}
	i, ok := leafIndex(n, key)
	if !ok {
		return nil, storage.ErrNotFound
	}
	return n.vals[i], nil
}

// childIndex picks the subtree for key: the first separator > key decides.
func childIndex(n *node, key []byte) int {
	return sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(n.keys[i], key) > 0
	})
}

func leafIndex(n *node, key []byte) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(n.keys[i], key) >= 0
	})
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return i, true
	}
	return i, false
}

// Put implements storage.Engine.
func (t *Tree) Put(key, value []byte) error {
	if t.closed.Load() {
		return storage.ErrClosed
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	t.putLocked(key, value)
	return nil
}

// putLocked keeps value itself (storage.Engine's ownership rule) and copies
// key only when it inserts it.
func (t *Tree) putLocked(key, value []byte) {
	root := t.root.Load()
	newRoot, split, replaced, oldLen := insert(root, key, value)
	if split != nil {
		newRoot = &node{
			keys:     [][]byte{split.key},
			children: []*node{newRoot, split.right},
		}
	}
	t.root.Store(newRoot)
	if replaced {
		t.bytes.Add(int64(len(value) - oldLen))
	} else {
		t.count.Add(1)
		t.bytes.Add(int64(len(key) + len(value)))
	}
}

type splitResult struct {
	key   []byte
	right *node
}

// insert clones the path from n down to the leaf and inserts key/value.
// It returns the cloned node, an optional split, whether an existing key
// was replaced, and the replaced value's length.
func insert(n *node, key, value []byte) (*node, *splitResult, bool, int) {
	if n.leaf {
		c := cloneNode(n)
		i, found := leafIndex(c, key)
		if found {
			oldLen := len(c.vals[i])
			c.vals[i] = value
			return c, nil, true, oldLen
		}
		c.keys = insertAt(c.keys, i, bytes.Clone(key))
		c.vals = insertAt(c.vals, i, value)
		if len(c.keys) < order {
			return c, nil, false, 0
		}
		return splitLeaf(c)
	}
	i := childIndex(n, key)
	child, split, replaced, oldLen := insert(n.children[i], key, value)
	c := cloneNode(n)
	c.children[i] = child
	if split != nil {
		c.keys = insertAt(c.keys, i, split.key)
		c.children = insertAt(c.children, i+1, split.right)
		if len(c.children) > order {
			left, sr := splitInternal(c)
			return left, sr, replaced, oldLen
		}
	}
	return c, nil, replaced, oldLen
}

func splitLeaf(c *node) (*node, *splitResult, bool, int) {
	mid := len(c.keys) / 2
	right := &node{
		leaf: true,
		keys: append([][]byte(nil), c.keys[mid:]...),
		vals: append([][]byte(nil), c.vals[mid:]...),
	}
	c.keys = c.keys[:mid]
	c.vals = c.vals[:mid]
	return c, &splitResult{key: right.keys[0], right: right}, false, 0
}

func splitInternal(c *node) (*node, *splitResult) {
	mid := len(c.keys) / 2
	promote := c.keys[mid]
	right := &node{
		keys:     append([][]byte(nil), c.keys[mid+1:]...),
		children: append([]*node(nil), c.children[mid+1:]...),
	}
	c.keys = c.keys[:mid]
	c.children = c.children[:mid+1]
	return c, &splitResult{key: promote, right: right}
}

func cloneNode(n *node) *node {
	c := &node{leaf: n.leaf}
	c.keys = append([][]byte(nil), n.keys...)
	if n.leaf {
		c.vals = append([][]byte(nil), n.vals...)
	} else {
		c.children = append([]*node(nil), n.children...)
	}
	return c
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Delete implements storage.Engine. Underflowed nodes are not rebalanced;
// like Bolt, the tree tolerates sparse nodes and reclaims space on Compact.
func (t *Tree) Delete(key []byte) error {
	if t.closed.Load() {
		return storage.ErrClosed
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	root := t.root.Load()
	newRoot, removed, vlen := remove(root, key)
	if removed {
		t.root.Store(newRoot)
		t.count.Add(-1)
		t.bytes.Add(-int64(len(key) + vlen))
	}
	return nil
}

func remove(n *node, key []byte) (*node, bool, int) {
	if n.leaf {
		i, found := leafIndex(n, key)
		if !found {
			return n, false, 0
		}
		c := cloneNode(n)
		vlen := len(c.vals[i])
		c.keys = append(c.keys[:i], c.keys[i+1:]...)
		c.vals = append(c.vals[:i], c.vals[i+1:]...)
		return c, true, vlen
	}
	i := childIndex(n, key)
	child, removed, vlen := remove(n.children[i], key)
	if !removed {
		return n, false, 0
	}
	c := cloneNode(n)
	c.children[i] = child
	return c, true, vlen
}

// ApplyBatch implements storage.Batch: all writes become visible in one
// root swap, so a snapshot reader sees none or all of them.
func (t *Tree) ApplyBatch(writes []storage.Write) error {
	if t.closed.Load() {
		return storage.ErrClosed
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	for _, w := range writes {
		if w.Value == nil {
			root := t.root.Load()
			newRoot, removed, vlen := remove(root, w.Key)
			if removed {
				t.root.Store(newRoot)
				t.count.Add(-1)
				t.bytes.Add(-int64(len(w.Key) + vlen))
			}
			continue
		}
		t.putLocked(w.Key, w.Value)
	}
	return nil
}

// NewIterator implements storage.Engine. The iterator walks the snapshot of
// the tree taken at creation: concurrent writes are invisible to it.
func (t *Tree) NewIterator(start []byte) storage.Iterator {
	return &iterator{stack: descend(t.root.Load(), start)}
}

// frame tracks a position within one node during iteration.
type frame struct {
	n   *node
	idx int
}

// descend builds the stack of frames from root to the leaf containing the
// first key ≥ start.
func descend(n *node, start []byte) []frame {
	var stack []frame
	for !n.leaf {
		i := 0
		if start != nil {
			i = childIndex(n, start)
		}
		stack = append(stack, frame{n: n, idx: i})
		n = n.children[i]
	}
	i := 0
	if start != nil {
		i, _ = leafIndex(n, start)
	}
	stack = append(stack, frame{n: n, idx: i - 1})
	return stack
}

type iterator struct {
	stack []frame
	key   []byte
	val   []byte
}

// Next implements storage.Iterator.
func (it *iterator) Next() bool {
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		if top.n.leaf {
			top.idx++
			if top.idx < len(top.n.keys) {
				it.key = top.n.keys[top.idx]
				it.val = top.n.vals[top.idx]
				return true
			}
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		top.idx++
		if top.idx < len(top.n.children) {
			child := top.n.children[top.idx]
			for !child.leaf {
				it.stack = append(it.stack, frame{n: child, idx: 0})
				child = child.children[0]
			}
			it.stack = append(it.stack, frame{n: child, idx: -1})
			continue
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	return false
}

// Key implements storage.Iterator.
func (it *iterator) Key() []byte { return it.key }

// Value implements storage.Iterator.
func (it *iterator) Value() []byte { return it.val }

// Close implements storage.Iterator.
func (it *iterator) Close() error { return nil }

// ApproxSize implements storage.Engine.
func (t *Tree) ApproxSize() int64 { return t.bytes.Load() }

// Len implements storage.Engine.
func (t *Tree) Len() int { return int(t.count.Load()) }

// Close implements storage.Engine.
func (t *Tree) Close() error {
	t.closed.Store(true)
	return nil
}

// Depth returns the tree height; tests use it to confirm splits happen.
func (t *Tree) Depth() int {
	d := 1
	n := t.root.Load()
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}
