// Package authstate maintains an authenticated state commitment *off*
// the commit path — the read-side counterpart to the write-side pipeline
// work (PR 3/5/7).
//
// The paper's hybrid designs all hinge on an authenticated data
// structure over state, but maintaining it inline taxes every block
// commit with trie writes plus a root rehash (Quorum's Fig 11 collapse).
// This package moves that work onto a dedicated worker: the committer
// hands the RootMaintainer the per-block versioned write set it already
// has in hand — the same delta that feeds PR 5's dirty-set checkpoints —
// and seals the block immediately. The worker applies the delta to a
// memoized MPT, recomputes only the O(K·depth) invalidated hashes, signs
// the root, and publishes a height-tagged SignedRoot with a
// block-consistent trie snapshot. Staleness is bounded by construction:
// the queue is bounded, so the published root trails the ledger tip by
// at most the queue depth (plus the publish interval when roots are
// signed every N blocks).
//
// This is incremental view maintenance in the Hu/Motik/Horrocks sense:
// the root is a materialized commitment over state, and per-block deltas
// — not full recomputation — drive its upkeep.
package authstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/state"
)

// SignedRoot is a height-tagged, endorser-signed state commitment — what
// a light client verifies Merkle proofs against instead of trusting a
// replica.
type SignedRoot struct {
	Height uint64
	Root   cryptoutil.Hash
	Sig    cryptoutil.Signature
}

// RootDigest is the signing digest of a (height, root) pair. Binding the
// height prevents a replay of an old signed root at a newer height.
func RootDigest(height uint64, root cryptoutil.Hash) cryptoutil.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], height)
	return cryptoutil.HashConcat(buf[:], root[:])
}

// Verify checks the endorser signature over the (height, root) binding.
func (sr SignedRoot) Verify(pub cryptoutil.PublicKey) error {
	return cryptoutil.VerifyDigest(pub, RootDigest(sr.Height, sr.Root), sr.Sig)
}

// Update is one published commitment: the signed root, the trie snapshot
// it was computed from (block-consistent, safe for concurrent reads),
// and the keys written since the previous publication — the invalidation
// set for proof caches layered on top.
type Update struct {
	Root  SignedRoot
	Snap  *mpt.Snapshot
	Dirty []string
}

// Config assembles a RootMaintainer.
type Config struct {
	// Signer endorses published roots. Required.
	Signer *cryptoutil.Signer
	// QueueDepth bounds the submit queue — the maximum number of block
	// deltas the maintainer may trail the committer by before Submit
	// exerts backpressure. Default 128.
	QueueDepth int
	// PublishEvery signs and publishes a root every N applied blocks
	// (the root-lag knob: larger N = cheaper maintenance, staler roots).
	// Heights that are a multiple of N publish; default 1 publishes
	// every block.
	PublishEvery int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.PublishEvery <= 0 {
		c.PublishEvery = 1
	}
	return c
}

// ErrClosed is returned by Submit and WaitFor after Close.
var ErrClosed = errors.New("authstate: maintainer closed")

type delta struct {
	height uint64
	writes []state.VersionedWrite
}

// Stats summarizes the maintainer's progress, in the counter style of
// cryptoutil's SigCacheStats.
type Stats struct {
	// BlocksApplied counts deltas applied to the trie.
	BlocksApplied uint64
	// KeysApplied counts individual writes applied.
	KeysApplied uint64
	// AppliedHeight is the height of the last applied delta.
	AppliedHeight uint64
	// PublishedHeight is the height of the last signed, published root.
	PublishedHeight uint64
	// Published counts signed-root publications.
	Published uint64
}

// RootMaintainer consumes per-block versioned write sets on a worker
// goroutine, applies them to a memoized MPT, and publishes endorser-
// signed roots with block-consistent snapshots. One maintainer per node;
// Submit is called by that node's committer (single producer).
type RootMaintainer struct {
	cfg  Config
	ch   chan delta
	done chan struct{}
	wg   sync.WaitGroup

	// trie is owned by the worker goroutine; everyone else reads only
	// published snapshots. Between two publications the worker's writes
	// change the trie's own nodes in place (mpt's generation rule), so a
	// key written ten times in a block, or in each of PublishEvery
	// blocks, copies its path once.
	trie *mpt.Trie
	// dirty accumulates keys written since the last publication.
	dirty map[string]struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	published Update
	hasPub    bool
	closed    bool
	subs      []func(Update)

	blocksApplied atomic.Uint64
	keysApplied   atomic.Uint64
	appliedHeight atomic.Uint64
	pubHeight     atomic.Uint64
	pubCount      atomic.Uint64

	closeOnce sync.Once
}

// New starts a RootMaintainer. Close must be called to stop its worker.
func New(cfg Config) (*RootMaintainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Signer == nil {
		return nil, errors.New("authstate: Config.Signer is required")
	}
	m := &RootMaintainer{
		cfg:   cfg,
		ch:    make(chan delta, cfg.QueueDepth),
		done:  make(chan struct{}),
		trie:  mpt.New(),
		dirty: make(map[string]struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(1)
	go m.run()
	return m, nil
}

// Public returns the key published roots verify under.
func (m *RootMaintainer) Public() cryptoutil.PublicKey { return m.cfg.Signer.Public() }

// Subscribe registers fn to run (on the worker goroutine, in publication
// order) after each published update. Proof servers use it for
// per-height cache invalidation. Must be called before traffic.
func (m *RootMaintainer) Subscribe(fn func(Update)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// Submit hands the maintainer one committed block's write set. Heights
// must be strictly increasing; the writes slice is owned by the
// maintainer from this call on (the committer passes its own copy, not
// a buffer it will reuse). A full queue blocks — backpressure that
// bounds how far the root can trail the tip. Submit fails only after
// Close.
func (m *RootMaintainer) Submit(height uint64, writes []state.VersionedWrite) error {
	select {
	case <-m.done:
		return ErrClosed
	default:
	}
	select {
	case m.ch <- delta{height: height, writes: writes}:
		return nil
	case <-m.done:
		return ErrClosed
	}
}

// run is the worker: apply deltas, publish signed roots.
func (m *RootMaintainer) run() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case d := <-m.ch:
			m.apply(d)
		}
	}
}

func (m *RootMaintainer) apply(d delta) {
	for _, w := range d.writes {
		if w.Value == nil {
			m.trie.Delete([]byte(w.Key))
		} else {
			m.trie.Put([]byte(w.Key), w.Value)
		}
		m.dirty[w.Key] = struct{}{}
	}
	m.blocksApplied.Add(1)
	m.keysApplied.Add(uint64(len(d.writes)))
	m.appliedHeight.Store(d.height)
	if d.height%uint64(m.cfg.PublishEvery) != 0 {
		return
	}
	m.publish(d.height)
}

func (m *RootMaintainer) publish(height uint64) {
	// Snapshot fills every reachable hash cache (via the memoized
	// RootHash) and starts a new trie generation, so the published view
	// is read-only for any number of concurrent provers: apply copies a
	// node this view reaches before writing through it.
	snap := m.trie.Snapshot()
	sig, err := m.cfg.Signer.SignDigest(RootDigest(height, snap.RootHash()))
	if err != nil {
		// Signing is deterministic local crypto; an error means a broken
		// signer. Leave the previous root published rather than publish
		// an unsigned one.
		return
	}
	up := Update{
		Root:  SignedRoot{Height: height, Root: snap.RootHash(), Sig: sig},
		Snap:  snap,
		Dirty: make([]string, 0, len(m.dirty)),
	}
	for k := range m.dirty {
		up.Dirty = append(up.Dirty, k)
	}
	clear(m.dirty)

	// Subscribers (cache invalidation) run strictly before the update
	// becomes visible through Published/WaitFor: a reader released by
	// WaitFor(h) must never race the invalidation pass for height h.
	m.mu.Lock()
	subs := m.subs
	m.mu.Unlock()
	for _, fn := range subs {
		fn(up)
	}
	m.mu.Lock()
	m.published = up
	m.hasPub = true
	m.pubHeight.Store(height)
	m.pubCount.Add(1)
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Published returns the latest published update, if any. Non-blocking —
// the committer reads it on the seal path to stamp headers with the
// freshest available root (bounded staleness).
func (m *RootMaintainer) Published() (Update, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.published, m.hasPub
}

// WaitFor blocks until a root at or above height is published, then
// returns the latest published root. It fails on Close or after timeout
// (a maintainer configured with PublishEvery > 1 only publishes at
// multiples of the interval, so waiters must not assume every height
// arrives).
func (m *RootMaintainer) WaitFor(height uint64, timeout time.Duration) (SignedRoot, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer timer.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.hasPub && m.published.Root.Height >= height {
			return m.published.Root, nil
		}
		if m.closed {
			return SignedRoot{}, ErrClosed
		}
		if !time.Now().Before(deadline) {
			return SignedRoot{}, fmt.Errorf("authstate: no root ≥ height %d within %v (published %d)",
				height, timeout, m.published.Root.Height)
		}
		m.cond.Wait()
	}
}

// Stats returns the maintainer's progress counters.
func (m *RootMaintainer) Stats() Stats {
	return Stats{
		BlocksApplied:   m.blocksApplied.Load(),
		KeysApplied:     m.keysApplied.Load(),
		AppliedHeight:   m.appliedHeight.Load(),
		PublishedHeight: m.pubHeight.Load(),
		Published:       m.pubCount.Load(),
	}
}

// Close stops the worker. Queued deltas are dropped — the crash
// semantics a node's death would impose anyway — and blocked Submit and
// WaitFor calls fail with ErrClosed. Idempotent.
func (m *RootMaintainer) Close() {
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
		m.mu.Lock()
		m.closed = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
}
