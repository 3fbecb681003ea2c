// Package dichotomy's top-level benchmarks regenerate each of the paper's
// tables and figures as testing.B benchmarks:
//
//	go test -bench=. -benchmem
//
// BenchmarkExperiments runs experiments.Registry, one sub-benchmark per
// experiment, and prints the same tables as `dichotomy-bench <name>` to
// stderr. BenchmarkBlockShape, BenchmarkRecovery and BenchmarkIngress run
// smaller sweeps of three of them under names CI's bench trajectory keys
// on. They run at a reduced quick scale; use the command for paper-scale
// sweeps.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/experiments"
	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// benchScale keeps testing.B iterations fast while exercising the full
// pipeline of every experiment.
func benchScale() experiments.Scale {
	sc := experiments.Quick()
	sc.Records = 500
	sc.Accounts = 500
	sc.Duration = 800 * time.Millisecond
	sc.Warmup = 200 * time.Millisecond
	return sc
}

func runOnce(b *testing.B, run func() []experiments.Table) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range run() {
			t.Render(os.Stderr)
		}
	}
}

// BenchmarkExperiments runs every registered experiment at its quick axes,
// one sub-benchmark each, named as `dichotomy-bench` names it.
func BenchmarkExperiments(b *testing.B) {
	sc := benchScale()
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			runOnce(b, func() []experiments.Table { return e.Run(sc, false) })
		})
	}
}

// BenchmarkBlockShape sweeps Fabric's block-processing pipeline shape:
// the serial baseline (workers=1, depth=1) against parallel intra-block
// validation with cross-block pipelining (workers=4, depth=2) at the
// default block size. On multi-core hardware the parallel rows should
// beat the serial row — the refactor's acceptance check, turning the
// paper's validation-bottleneck observation (Fig 8) into a measurable
// speedup; on a single-CPU host both converge, like
// BenchmarkStateScaling.
func BenchmarkBlockShape(b *testing.B) {
	sc := benchScale()
	runOnce(b, func() []experiments.Table {
		return experiments.BlockShape(sc, experiments.ShapeAxes{Sizes: []int{100}, Workers: []int{1, 4}, Depths: []int{1, 2}})
	})
}

// BenchmarkRecovery runs the checkpoint sweep at one representative
// point per mode: a durable Fabric network checkpointing every 8 blocks
// — serializing the whole store on the committer (full) or only the
// dirtied keys on a worker (delta) — crashed at the tip, recovered from
// the checkpoint chain + ledger-tail replay and verified byte-identical
// to a healthy replica. The printed rows carry the bytes-written /
// commit-pause / restore/replay split; the per-mode ns/op lands the
// full-vs-delta separation in the CI bench trajectory.
func BenchmarkRecovery(b *testing.B) {
	for _, mode := range []string{"full", "delta"} {
		b.Run("mode="+mode, func(b *testing.B) {
			sc := benchScale()
			runOnce(b, func() []experiments.Table {
				return experiments.Recovery(sc, experiments.RecoveryAxes{
					Modes: []string{mode}, Intervals: []uint64{8}, Crashes: []float64{1.0}})
			})
		})
	}
}

// BenchmarkIngress runs the mempool front-door overload sweep at two
// representative offered-load multiples: at peak (the door is invisible)
// and at 4× peak (the pool fills, blocks grow toward MaxBlock, and the
// overflow sheds at admission as typed retryable errors instead of
// wedging consensus). The printed rows carry the shed/dedup/throttle
// decomposition; the ns/op trend guards the Submit path's overhead in
// the CI bench trajectory.
func BenchmarkIngress(b *testing.B) {
	sc := benchScale()
	runOnce(b, func() []experiments.Table { return experiments.Ingress(sc, []float64{1, 4}) })
}

// BenchmarkStateScaling measures the shared state layer's worker scaling:
// a single-stripe store (the old per-system global lock, reproduced
// exactly by shards=1) against the striped default, at 1/4/16 workers
// running the layer's operation mix — point reads, version lookups,
// per-key version CAS, and small block commits. Striped throughput
// pulling away from the global baseline as workers grow is the refactor's
// acceptance check; the separation needs parallel hardware (GOMAXPROCS
// > 1) — on a single-CPU host both variants serialize and the numbers
// converge to per-op overhead parity.
func BenchmarkStateScaling(b *testing.B) {
	layouts := []struct {
		name   string
		shards int
	}{
		{"global", 1},
		{"striped", 64},
	}
	for _, layout := range layouts {
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/workers=%d", layout.name, workers), func(b *testing.B) {
				st := state.New(memdb.New(), layout.shards)
				defer st.Close()
				keys := make([]string, 4096)
				seed := st.NewBlock()
				for i := range keys {
					keys[i] = fmt.Sprintf("key-%04d", i)
					seed.Stage(txn.Write{Key: keys[i], Value: []byte("seed")},
						txn.Version{BlockNum: 1, TxNum: uint32(i)})
				}
				if err := seed.Commit(); err != nil {
					b.Fatal(err)
				}
				var blockNum atomic.Uint64
				blockNum.Store(1)
				per := b.N/workers + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(w) + 1))
						value := []byte("value")
						for i := 0; i < per; i++ {
							k := keys[rng.Intn(len(keys))]
							switch i % 8 {
							case 0: // block commit: a small multi-key write group
								bn := blockNum.Add(1)
								block := []state.VersionedWrite{
									{Write: txn.Write{Key: k, Value: value},
										Version: txn.Version{BlockNum: bn}},
									{Write: txn.Write{Key: keys[rng.Intn(len(keys))], Value: value},
										Version: txn.Version{BlockNum: bn, TxNum: 1}},
								}
								if err := st.ApplyBlock(block); err != nil {
									b.Error(err)
									return
								}
							case 2: // validation: read-version + CAS
								cur, _ := st.CommittedVersion(k)
								st.CompareAndSetVersion(k, cur,
									txn.Version{BlockNum: blockNum.Add(1)})
							case 4, 6: // point read through the engine
								if _, _, err := st.Get(k); err != nil {
									b.Error(err)
									return
								}
							default: // version lookup (the validation read path)
								st.CommittedVersion(k)
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}
