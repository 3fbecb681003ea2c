package pipeline

import (
	"math/rand"
	"slices"
	"testing"

	"dichotomy/internal/occ"
	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// TestValidatorReuseMatchesFresh carries one Validator across 200 random
// blocks, each validated against the state the blocks before it committed,
// and holds it to occ.ValidateBlock and to a fresh Validator: the scratch a
// block leaves behind — longer or shorter, more waves or fewer — never
// shows in the next block's waves or verdicts.
func TestValidatorReuseMatchesFresh(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(workers)))
		st := state.New(memdb.New(), 0)
		var v Validator
		empty, deeper, prevWaves := false, false, 0
		for bn := uint64(2); bn < 202; bn++ {
			n := rng.Intn(25)
			if bn == 100 {
				n = 0
			}
			sets := randomSets(rng, n, st)
			waves := len(Waves(sets))
			empty, deeper = empty || n == 0, deeper || waves > prevWaves && prevWaves > 0
			prevWaves = waves
			if got, want := v.Waves(sets), Waves(sets); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("workers=%d block=%d: reused waves %v, fresh %v", workers, bn, got, want)
			}
			want := occ.ValidateBlock(sets, st, bn)
			got := v.ValidateWaves(sets, st, bn, workers)
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d block=%d: reused validator's verdicts %v, serial %v (sets=%+v)", workers, bn, got, want, sets)
			}
			blk := st.NewBlock()
			for i := range sets {
				if want[i] == occ.OK {
					blk.StageAll(sets[i].Writes, txn.Version{BlockNum: bn, TxNum: uint32(i)})
				}
			}
			if err := blk.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if !empty || !deeper {
			t.Fatalf("workers=%d: the blocks held an empty one %v, one with more waves than the block before %v", workers, empty, deeper)
		}
		st.Close()
	}
}

// A reused Validator validates a 40-transaction block at one worker — the
// Fabric peer's default — without allocating: its scratch has grown to the
// block on the first call.
func TestValidatorReusedAllocatesNothing(t *testing.T) {
	st := state.New(memdb.New(), 0)
	defer st.Close()
	sets := randomSets(rand.New(rand.NewSource(1)), 40, st)
	var v Validator
	if waves := len(v.Waves(sets)); waves < 2 {
		t.Fatalf("the block schedules into %d waves, want several", waves)
	}
	if allocs := testing.AllocsPerRun(100, func() { v.ValidateWaves(sets, st, 7, 1) }); allocs != 0 {
		t.Fatalf("a reused Validator allocates %.1f times a block, want 0", allocs)
	}
}
