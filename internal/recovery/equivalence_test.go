package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// Every incremental path must equal from-scratch recomputation: after any
// checkpoint, through either front-end, the chain on disk — seeding full,
// deltas, FullEvery folds, pruning in between — materializes to exactly
// what a full dump of the source says, and a fresh restore of it does too.

// requireChainIs fails unless dir's chain has its tip at height and holds
// exactly want.
func requireChainIs(t *testing.T, dir string, height uint64, want map[string]chainEntry, where string) {
	t.Helper()
	got, tip, _, err := loadChain(dir, 0)
	if err != nil || tip != height {
		t.Fatalf("%s: loadChain = tip %d, %v; want tip %d", where, tip, err, height)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: chain holds %d keys, source %d", where, len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g.ver != w.ver || !bytes.Equal(g.value, w.value) {
			t.Fatalf("%s: key %q: chain has %q@%v (present %v), source %q@%v", where, k, g.value, g.ver, ok, w.value, w.ver)
		}
	}
}

// randomStep mutates a few of 24 keys: mostly puts and overwrites (an
// empty value now and then), some deletes. put(key, nil) deletes.
func randomStep(rng *rand.Rand, step int, put func(i int, key string, value []byte)) {
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		key := fmt.Sprintf("k%02d", rng.Intn(24))
		switch r := rng.Intn(10); {
		case r < 3:
			put(i, key, nil)
		case r == 3:
			put(i, key, []byte{})
		default:
			put(i, key, []byte(fmt.Sprintf("v%d.%d", step, i)))
		}
	}
}

func storeDump(st *state.Store) map[string]chainEntry {
	out := make(map[string]chainEntry)
	st.Dump(func(key string, value []byte, ver txn.Version) bool {
		out[key] = chainEntry{value: bytes.Clone(value), ver: ver}
		return true
	})
	return out
}

func TestIncrementalEqualsFromScratch(t *testing.T) {
	for _, fullEvery := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 20; seed++ {
			where := fmt.Sprintf("seed %d, FullEvery %d", seed, fullEvery)
			t.Run(where+"/Checkpointer", func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				src := state.New(memdb.New(), 4)
				defer src.Close()
				c, err := NewCheckpointer(src, Options{Dir: dir, Interval: 1, Mode: ModeDelta, FullEvery: fullEvery})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				for step := 1; step <= 40; step++ {
					var block []state.VersionedWrite
					randomStep(rng, step, func(i int, key string, value []byte) {
						block = append(block, state.VersionedWrite{
							Write:   txn.Write{Key: key, Value: value},
							Version: txn.Version{BlockNum: uint64(step), TxNum: uint32(i)},
						})
					})
					if err := src.ApplyBlock(block); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(3) != 0 {
						continue
					}
					at := fmt.Sprintf("%s, checkpoint at step %d", where, step)
					if err := c.Checkpoint(uint64(step)); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					c.Flush()
					if err := c.LastErr(); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					want := storeDump(src)
					requireChainIs(t, dir, uint64(step), want, at)
					dst := state.New(memdb.New(), 4)
					h, _, err := Restore(dst, dir, 0)
					got := storeDump(dst)
					dst.Close()
					if err != nil || h != uint64(step) || len(got) != len(want) {
						t.Fatalf("%s: Restore = height %d, %d keys, %v; want %d keys", at, h, len(got), err, len(want))
					}
					for k, w := range want {
						if g := got[k]; g.ver != w.ver || !bytes.Equal(g.value, w.value) {
							t.Fatalf("%s: key %q restored as %q@%v, source %q@%v", at, k, g.value, g.ver, w.value, w.ver)
						}
					}
				}
			})
			t.Run(where+"/ChainWriter", func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opts := Options{Dir: t.TempDir(), Interval: 1, Mode: ModeDelta, FullEvery: fullEvery}
				w, err := OpenChainWriter(opts)
				if err != nil {
					t.Fatal(err)
				}
				src := make(map[string]chainEntry)
				dump := func(emit func(key string, value []byte)) {
					for k, e := range src {
						emit(k, e.value)
					}
				}
				for step := 1; step <= 40; step++ {
					randomStep(rng, step, func(_ int, key string, value []byte) {
						if value == nil {
							delete(src, key)
						} else {
							src[key] = chainEntry{value: value}
						}
					})
					if rng.Intn(3) != 0 {
						continue
					}
					at := fmt.Sprintf("%s, checkpoint at step %d", where, step)
					if err := w.Checkpoint(uint64(step), dump); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					requireChainIs(t, opts.Dir, uint64(step), src, at)
					fresh, err := OpenChainWriter(opts)
					if err != nil {
						t.Fatalf("%s: reopen: %v", at, err)
					}
					if fresh.LastHeight() != uint64(step) {
						t.Fatalf("%s: reopened at height %d", at, fresh.LastHeight())
					}
					restored := 0
					err = fresh.Restore(func(key string, value []byte) error {
						restored++
						if e, ok := src[key]; !ok || !bytes.Equal(e.value, value) {
							return fmt.Errorf("key %q restored as %q, source %q (present %v)", key, value, e.value, ok)
						}
						return nil
					})
					if err != nil || restored != len(src) {
						t.Fatalf("%s: restored %d of %d keys: %v", at, restored, len(src), err)
					}
				}
			})
		}
	}
}
