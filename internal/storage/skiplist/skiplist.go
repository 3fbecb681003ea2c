// Package skiplist implements a concurrent ordered map used as the LSM
// memtable and as a standalone performance-oriented index. The design
// follows the parallel skip list (PSL) idea the paper cites for
// hardware-conscious database indexes: reads are lock-free (atomic pointer
// loads), writes take a single short mutex, and the probabilistic level
// structure keeps expected O(log n) search without rebalancing.
package skiplist

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
)

const maxLevel = 24

// List is a concurrent skip list from []byte keys to []byte values. The
// zero value is not usable; call New.
type List struct {
	head   *node
	level  atomic.Int32
	length atomic.Int64
	bytes  atomic.Int64

	writeMu sync.Mutex
	rng     *rand.Rand
}

type node struct {
	key   []byte
	value atomic.Pointer[[]byte]
	// tombstone marks logically deleted entries; the LSM layer needs
	// deletions to shadow older SSTable versions rather than disappear.
	tomb atomic.Bool
	next [maxLevel]atomic.Pointer[node]
}

// New returns an empty list.
func New() *List {
	l := &List{
		head: &node{},
		rng:  rand.New(rand.NewSource(0x5EED)),
	}
	l.level.Store(1)
	return l
}

// Len returns the number of live (non-tombstone) entries.
func (l *List) Len() int { return int(l.length.Load()) }

// Bytes returns the approximate resident size of keys and values.
func (l *List) Bytes() int64 { return l.bytes.Load() }

func (l *List) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// findGE returns the first node with key ≥ key, along with the predecessor
// at every level (only filled when preds != nil).
func (l *List) findGE(key []byte, preds *[maxLevel]*node) *node {
	x := l.head
	for i := int(l.level.Load()) - 1; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt == nil || bytes.Compare(nxt.key, key) >= 0 {
				break
			}
			x = nxt
		}
		if preds != nil {
			preds[i] = x
		}
	}
	return x.next[0].Load()
}

// Get returns the value for key and whether it exists. Tombstoned keys
// report !ok but found=true via GetEntry; plain Get treats them as absent.
func (l *List) Get(key []byte) (value []byte, ok bool) {
	v, tomb, found := l.GetEntry(key)
	if !found || tomb {
		return nil, false
	}
	return v, true
}

// GetEntry returns the stored value, its tombstone flag, and whether the key
// is present at all. The LSM read path needs the three-way distinction:
// a tombstone must stop the search through older levels.
func (l *List) GetEntry(key []byte) (value []byte, tomb, found bool) {
	n := l.findGE(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false, false
	}
	vp := n.value.Load()
	if vp != nil {
		value = *vp
	}
	return value, n.tomb.Load(), true
}

// Put inserts or replaces the value for key. The list keeps value itself,
// so the caller must not modify it afterwards; it copies key on insert and
// never writes into either.
func (l *List) Put(key, value []byte) {
	l.set(key, value, false)
}

// Delete inserts a tombstone for key. The entry still occupies the list so
// iterators and the LSM flush can observe the deletion.
func (l *List) Delete(key []byte) {
	l.set(key, nil, true)
}

func (l *List) set(key, value []byte, tomb bool) {
	if value == nil && !tomb {
		value = []byte{} // a live entry's value is never nil
	}
	l.writeMu.Lock()
	defer l.writeMu.Unlock()

	var preds [maxLevel]*node
	// Fill every level's predecessor: levels above the current height use
	// head.
	for i := range preds {
		preds[i] = l.head
	}
	n := l.findGE(key, &preds)
	if n != nil && bytes.Equal(n.key, key) {
		old := n.value.Load()
		wasTomb := n.tomb.Load()
		n.value.Store(&value)
		n.tomb.Store(tomb)
		var delta int64
		if old != nil {
			delta -= int64(len(*old))
		}
		delta += int64(len(value))
		l.bytes.Add(delta)
		switch {
		case wasTomb && !tomb:
			l.length.Add(1)
		case !wasTomb && tomb:
			l.length.Add(-1)
		}
		return
	}

	lvl := l.randomLevel()
	if cur := int(l.level.Load()); lvl > cur {
		l.level.Store(int32(lvl))
	}
	k := make([]byte, len(key))
	copy(k, key)
	nn := &node{key: k}
	nn.value.Store(&value)
	nn.tomb.Store(tomb)
	// Link bottom-up so concurrent readers never see a node reachable at a
	// high level but missing below.
	for i := 0; i < lvl; i++ {
		nn.next[i].Store(preds[i].next[i].Load())
	}
	for i := 0; i < lvl; i++ {
		preds[i].next[i].Store(nn)
	}
	l.bytes.Add(int64(len(k) + len(value)))
	if !tomb {
		l.length.Add(1)
	}
}

// Entry is one element yielded by an iterator, including the tombstone flag
// so the LSM merge can propagate deletions.
type Entry struct {
	Key, Value []byte
	Tomb       bool
}

// Iterator walks entries in ascending key order. It tolerates concurrent
// inserts (it may or may not observe them) and never blocks writers.
type Iterator struct {
	cur *node
}

// NewIterator returns an iterator positioned before the first key ≥ start
// (or before the first key when start is nil).
func (l *List) NewIterator(start []byte) *Iterator {
	if start == nil {
		return &Iterator{cur: l.head}
	}
	// Position at the node *before* the first ≥ start; findGE gives the
	// target, so walk predecessors manually.
	x := l.head
	for i := int(l.level.Load()) - 1; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt == nil || bytes.Compare(nxt.key, start) >= 0 {
				break
			}
			x = nxt
		}
	}
	return &Iterator{cur: x}
}

// Next advances and reports whether an entry is available.
func (it *Iterator) Next() bool {
	if it.cur == nil {
		return false
	}
	it.cur = it.cur.next[0].Load()
	return it.cur != nil
}

// Item returns the current entry. Valid only after Next returned true.
func (it *Iterator) Item() Entry {
	vp := it.cur.value.Load()
	var v []byte
	if vp != nil {
		v = *vp
	}
	return Entry{Key: it.cur.key, Value: v, Tomb: it.cur.tomb.Load()}
}
