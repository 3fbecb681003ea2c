package system

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/authstate"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/israce"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// failingEngine is an in-memory engine whose writes fail while fail is set.
// It hides memdb's batch path, so a block reaches it write by write.
type failingEngine struct {
	storage.Engine
	fail atomic.Bool
}

var errInjected = errors.New("injected write failure")

func (e *failingEngine) Put(key, value []byte) error {
	if e.fail.Load() {
		return errInjected
	}
	return e.Engine.Put(key, value)
}

func (e *failingEngine) Delete(key []byte) error {
	if e.fail.Load() {
		return errInjected
	}
	return e.Engine.Delete(key)
}

// openCommitReplica opens a memory-only replica over eng, with a root
// maintainer when auth is set.
func openCommitReplica(t *testing.T, eng storage.Engine, auth bool) *Replica {
	t.Helper()
	cfg := ReplicaConfig{
		Label:  "commit replica",
		Engine: func(string) (storage.Engine, error) { return eng, nil },
	}
	if auth {
		cfg.Auth = &authstate.Config{Signer: cryptoutil.MustNewSigner("commit-replica")}
	}
	r, err := OpenReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// TestReplicaCommit pins the one block commit every ledger replica runs:
// Write stages into the replica's reused block, Commit lands it in the
// store and hands the maintainer a delta of its own, Seal stamps the
// ledger block with the published root.
func TestReplicaCommit(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		// A block of 40 overwrites costs the engine's 40 value headers and
		// nothing else: no staging block, map or write slice per block.
		{"ReusedBlockAllocs", func(t *testing.T) {
			if israce.Enabled {
				t.Skip("the race detector makes sync.Pool lossy")
			}
			r := openCommitReplica(t, memdb.New(), false)
			ws := make([]txn.Write, 40)
			for i := range ws {
				ws[i] = txn.Write{Key: fmt.Sprintf("key%02d", i), Value: []byte("value")}
			}
			var height uint64
			got := testing.AllocsPerRun(100, func() {
				height++
				r.Write(ws, txn.Version{BlockNum: height})
				if err := r.Commit(height); err != nil {
					t.Fatal(err)
				}
			})
			if got != 40 {
				t.Fatalf("a 40-write block commit: %.1f allocations, want 40", got)
			}
		}},
		// A failed apply drops its block: the next block commits only its
		// own writes.
		{"FailedApplyDropsTheBlock", func(t *testing.T) {
			eng := &failingEngine{Engine: memdb.New()}
			r := openCommitReplica(t, eng, false)
			r.Write([]txn.Write{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("1")}}, txn.Version{BlockNum: 1})
			eng.fail.Store(true)
			if err := r.Commit(1); !errors.Is(err, errInjected) {
				t.Fatalf("Commit over a failing engine = %v, want the injected failure", err)
			}
			eng.fail.Store(false)
			r.Write([]txn.Write{{Key: "c", Value: []byte("2")}}, txn.Version{BlockNum: 2})
			if err := r.Commit(2); err != nil {
				t.Fatal(err)
			}
			var keys []string
			r.St.Range(func(key string, _ []byte) bool { keys = append(keys, key); return true })
			if len(keys) != 1 || keys[0] != "c" {
				t.Fatalf("store holds %q after the failed block and the next, want only c", keys)
			}
		}},
		// Incremental equals from scratch: 200 blocks of overwrites and
		// deletes through the maintainer's async deltas publish the root of
		// an mpt built over the final state, and the next sealed header
		// carries it. A delta that aliased the reused block would be zeroed
		// or overwritten under the maintainer's worker (and race under
		// -race).
		{"AsyncRootEqualsFromScratch", func(t *testing.T) {
			r := openCommitReplica(t, memdb.New(), true)
			rng := rand.New(rand.NewSource(1))
			const blocks = 200
			for h := uint64(1); h <= blocks; h++ {
				for i := range 1 + rng.Intn(20) {
					w := txn.Write{Key: fmt.Sprintf("k%03d", rng.Intn(100))}
					if rng.Intn(4) > 0 {
						w.Value = []byte(fmt.Sprintf("v%d.%d", h, i))
					}
					r.Write([]txn.Write{w}, txn.Version{BlockNum: h, TxNum: uint32(i)})
				}
				if err := r.Commit(h); err != nil {
					t.Fatal(err)
				}
			}
			root, err := r.Auth.WaitFor(blocks, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			scratch := mpt.New()
			r.St.Dump(func(key string, value []byte, _ txn.Version) bool {
				scratch.Put([]byte(key), value)
				return true
			})
			if root.Height != blocks || root.Root != scratch.RootHash() {
				t.Fatalf("published root at %d = %v, want %d and the from-scratch root %v",
					root.Height, root.Root, uint64(blocks), scratch.RootHash())
			}
			r.Seal(nil)
			blk, _ := r.Ledger.Block(r.Ledger.Height())
			if blk.Header.StateRoot != root.Root || blk.Header.StateRootHeight != blocks {
				t.Fatalf("sealed header carries root %v at %d, want the published one",
					blk.Header.StateRoot, blk.Header.StateRootHeight)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
