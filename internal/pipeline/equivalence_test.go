// Equivalence proofs for the parallel block path: every parallelized
// stage must commit byte-identical state — values and versions — and
// return identical per-transaction verdicts to the serial baseline it
// replaced. Run with -race these tests double as the thread-safety check
// for the wave scheduler and the speculative executor.
package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dichotomy/internal/contract"
	"dichotomy/internal/occ"
	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// randomSets builds a block of random read/write sets over a small hot
// key space, with read versions drawn from plausible and stale values —
// the adversarial soup for verdict equivalence.
func randomSets(rng *rand.Rand, n int, vs occ.VersionSource) []txn.RWSet {
	keys := []string{"a", "b", "c", "d", "e"}
	sets := make([]txn.RWSet, n)
	for i := range sets {
		for r := rng.Intn(3); r > 0; r-- {
			k := keys[rng.Intn(len(keys))]
			ver, ok := vs.CommittedVersion(k)
			if !ok || rng.Intn(4) == 0 {
				ver = txn.Version{BlockNum: uint64(rng.Intn(3)), TxNum: uint32(rng.Intn(2))}
			}
			sets[i].Reads = append(sets[i].Reads, txn.Read{Key: k, Version: ver})
		}
		for w := rng.Intn(3); w > 0; w-- {
			k := keys[rng.Intn(len(keys))]
			var v []byte
			if rng.Intn(5) > 0 {
				v = []byte{byte(rng.Intn(256))}
			}
			sets[i].Writes = append(sets[i].Writes, txn.Write{Key: k, Value: v})
		}
	}
	return sets
}

// TestValidateWavesMatchesSerialVerdicts fuzzes the wave scheduler
// against occ.ValidateBlock: identical verdicts on every block, every
// worker count, across many random conflict structures.
func TestValidateWavesMatchesSerialVerdicts(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := state.New(memdb.New(), 0)
		// Seed committed versions for a handful of keys.
		blk := st.NewBlock()
		for i, k := range []string{"a", "b", "c"} {
			blk.Stage(txn.Write{Key: k, Value: []byte("seed")},
				txn.Version{BlockNum: 1, TxNum: uint32(i)})
		}
		if err := blk.Commit(); err != nil {
			t.Fatal(err)
		}
		sets := randomSets(rng, 1+rng.Intn(24), st)
		want := occ.ValidateBlock(sets, st, 7)
		for _, workers := range []int{1, 2, 4, 8} {
			got := ValidateWaves(sets, st, 7, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d workers=%d tx=%d: verdict %v, want %v (sets=%+v)",
						seed, workers, i, got[i], want[i], sets)
				}
			}
		}
		st.Close()
	}
}

// dumpStore captures a store's full observable state: every key's value
// and committed version.
func dumpStore(st *state.Store) map[string]string {
	out := make(map[string]string)
	st.Range(func(key string, value []byte) bool {
		ver, _ := st.CommittedVersion(key)
		out[key] = fmt.Sprintf("%x@%d.%d", value, ver.BlockNum, ver.TxNum)
		return true
	})
	return out
}

func diffDumps(t *testing.T, name string, serial, parallel map[string]string) {
	t.Helper()
	for k, v := range serial {
		if pv, ok := parallel[k]; !ok || pv != v {
			t.Fatalf("%s: key %q serial=%s parallel=%s", name, k, v, parallel[k])
		}
	}
	for k := range parallel {
		if _, ok := serial[k]; !ok {
			t.Fatalf("%s: key %q exists only in parallel state", name, k)
		}
	}
}

func sbTx(method string, args ...string) txn.Invocation {
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	return txn.Invocation{Contract: contract.SmallbankName, Method: method, Args: raw}
}

// randomSmallbankBlock produces a block of conflicting Smallbank
// invocations over a tiny hot account set: transfers, deposits, and
// overdraft-prone debits, so some transactions abort on business rules
// and whether they abort depends on earlier in-block outcomes — the
// hardest case for speculative parallelism.
func randomSmallbankBlock(rng *rand.Rand, n int) []txn.Invocation {
	accounts := []string{"acc0", "acc1", "acc2"}
	amounts := []string{
		string(contract.EncodeInt64(5)),
		string(contract.EncodeInt64(40)),
		string(contract.EncodeInt64(95)),
	}
	invs := make([]txn.Invocation, n)
	for i := range invs {
		a := accounts[rng.Intn(len(accounts))]
		b := accounts[rng.Intn(len(accounts))]
		amt := amounts[rng.Intn(len(amounts))]
		switch rng.Intn(5) {
		case 0:
			invs[i] = sbTx("deposit_checking", a, amt)
		case 1:
			invs[i] = sbTx("send_payment", a, b, amt)
		case 2:
			invs[i] = sbTx("transact_savings", a, string(contract.EncodeInt64(-35)))
		case 3:
			invs[i] = sbTx("write_check", a, amt)
		default:
			invs[i] = sbTx("amalgamate", a, b)
		}
	}
	return invs
}

func newSmallbankStore(t *testing.T) *state.Store {
	t.Helper()
	st := state.New(memdb.New(), 0)
	reg := contract.NewRegistry(contract.Smallbank{})
	blk := st.NewBlock()
	for i := 0; i < 3; i++ {
		inv := sbTx("create_account", fmt.Sprintf("acc%d", i),
			string(contract.EncodeInt64(100)), string(contract.EncodeInt64(100)))
		rws, err := reg.Execute(blk, inv)
		if err != nil {
			t.Fatal(err)
		}
		blk.StageAll(rws.Writes, txn.Version{BlockNum: 1, TxNum: uint32(i)})
	}
	if err := blk.Commit(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPipelineEquivalenceSmallbank is the table-driven serial-vs-parallel
// proof over conflicting Smallbank workloads, one case per rebased block
// path:
//
//   - fabric: endorsed read/write sets validated by MVCC waves (stale
//     endorsements mixed in, plus endorsement failures masked out as the
//     peer's Validate stage does);
//   - quorum: order-then-re-execute with speculative parallel replay;
//   - veritas: effect sets from simulation that lags commit by a batch,
//     validated by waves.
//
// Each case replays the identical deterministic block sequence through
// the serial reference and the parallel path and requires identical
// verdicts and byte-identical committed state (values and versions).
func TestPipelineEquivalenceSmallbank(t *testing.T) {
	const blocks = 30
	workersList := []int{2, 4, 8}

	t.Run("fabric", func(t *testing.T) {
		for _, workers := range workersList {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				serial := newSmallbankStore(t)
				parallel := newSmallbankStore(t)
				reg := contract.NewRegistry(contract.Smallbank{})
				for bn := uint64(2); bn < 2+blocks; bn++ {
					invs := randomSmallbankBlock(rng, 1+rng.Intn(12))
					// Endorse every transaction against block-start state
					// (all in-block conflicts are discovered at validation,
					// as in Fabric).
					sets := make([]txn.RWSet, len(invs))
					for i, inv := range invs {
						rws, err := reg.Execute(serial, inv)
						if err != nil {
							continue // endorsement failed: empty set, like the peer
						}
						sets[i] = rws
					}
					// A few transactions fail endorsement-signature checks:
					// their sets are masked out before MVCC, as
					// peer.validateBlock does.
					for i := range sets {
						if rng.Intn(10) == 0 {
							sets[i] = txn.RWSet{}
						}
					}
					serialVerdicts := occ.ValidateBlock(sets, serial, bn)
					parallelVerdicts := ValidateWaves(sets, parallel, bn, workers)
					for i := range serialVerdicts {
						if serialVerdicts[i] != parallelVerdicts[i] {
							t.Fatalf("workers=%d seed=%d block=%d tx=%d: verdict %v vs %v",
								workers, seed, bn, i, parallelVerdicts[i], serialVerdicts[i])
						}
					}
					commitValid := func(st *state.Store, verdicts []occ.AbortReason) {
						blk := st.NewBlock()
						for i := range sets {
							if verdicts[i] == occ.OK {
								blk.StageAll(sets[i].Writes, txn.Version{BlockNum: bn, TxNum: uint32(i)})
							}
						}
						if err := blk.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					commitValid(serial, serialVerdicts)
					commitValid(parallel, parallelVerdicts)
				}
				diffDumps(t, fmt.Sprintf("fabric workers=%d seed=%d", workers, seed),
					dumpStore(serial), dumpStore(parallel))
				serial.Close()
				parallel.Close()
			}
		}
	})

	t.Run("quorum", func(t *testing.T) {
		for _, workers := range workersList {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				serial := newSmallbankStore(t)
				parallel := newSmallbankStore(t)
				reg := contract.NewRegistry(contract.Smallbank{})
				var exec Executor // reused block after block, as a replica does
				for bn := uint64(2); bn < 2+blocks; bn++ {
					invs := randomSmallbankBlock(rng, 1+rng.Intn(12))

					// Serial reference: the old double-execution loop.
					stage := serial.NewBlock()
					serialErrs := make([]error, len(invs))
					for i, inv := range invs {
						rws, err := reg.Execute(stage, inv)
						serialErrs[i] = err
						if err == nil {
							stage.StageAll(rws.Writes, txn.Version{BlockNum: bn, TxNum: uint32(i)})
						}
					}
					if err := stage.Commit(); err != nil {
						t.Fatal(err)
					}

					// Parallel path: speculative re-execution.
					rws, errs := exec.ExecuteBlock(len(invs), workers, bn, parallel,
						func(i int, view contract.StateReader) (txn.RWSet, error) {
							return reg.Execute(view, invs[i])
						})
					pstage := parallel.NewBlock()
					for i := range invs {
						if errs[i] == nil {
							pstage.StageAll(rws[i].Writes, txn.Version{BlockNum: bn, TxNum: uint32(i)})
						}
					}
					if err := pstage.Commit(); err != nil {
						t.Fatal(err)
					}

					for i := range invs {
						sAbort := errors.Is(serialErrs[i], contract.ErrAbort)
						pAbort := errors.Is(errs[i], contract.ErrAbort)
						if (serialErrs[i] == nil) != (errs[i] == nil) || sAbort != pAbort {
							t.Fatalf("workers=%d seed=%d block=%d tx=%d: outcome %v vs %v",
								workers, seed, bn, i, errs[i], serialErrs[i])
						}
					}
				}
				diffDumps(t, fmt.Sprintf("quorum workers=%d seed=%d", workers, seed),
					dumpStore(serial), dumpStore(parallel))
				serial.Close()
				parallel.Close()
			}
		}
	})

	t.Run("veritas", func(t *testing.T) {
		for _, workers := range workersList {
			for seed := int64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewSource(seed))
				serial := newSmallbankStore(t)
				parallel := newSmallbankStore(t)
				reg := contract.NewRegistry(contract.Smallbank{})
				// Simulate two batches ahead of commit, so effects carry
				// cross-batch stale reads as well as in-batch conflicts.
				var pending [][]txn.RWSet
				for bn := uint64(2); bn < 2+blocks; bn++ {
					invs := randomSmallbankBlock(rng, 1+rng.Intn(12))
					sets := make([]txn.RWSet, len(invs))
					for i, inv := range invs {
						rws, err := reg.Execute(serial, inv)
						if err != nil {
							continue
						}
						sets[i] = rws
					}
					pending = append(pending, sets)
					if len(pending) < 2 {
						continue
					}
					batch := pending[0]
					pending = pending[1:]
					serialVerdicts := occ.ValidateBlock(batch, serial, bn)
					parallelVerdicts := ValidateWaves(batch, parallel, bn, workers)
					for i := range serialVerdicts {
						if serialVerdicts[i] != parallelVerdicts[i] {
							t.Fatalf("workers=%d seed=%d batch=%d tx=%d: verdict %v vs %v",
								workers, seed, bn, i, parallelVerdicts[i], serialVerdicts[i])
						}
					}
					commitValid := func(st *state.Store, verdicts []occ.AbortReason) {
						blk := st.NewBlock()
						for i := range batch {
							if verdicts[i] == occ.OK {
								blk.StageAll(batch[i].Writes, txn.Version{BlockNum: bn, TxNum: uint32(i)})
							}
						}
						if err := blk.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					commitValid(serial, serialVerdicts)
					commitValid(parallel, parallelVerdicts)
				}
				diffDumps(t, fmt.Sprintf("veritas workers=%d seed=%d", workers, seed),
					dumpStore(serial), dumpStore(parallel))
				serial.Close()
				parallel.Close()
			}
		}
	})
}

// TestExecuteBlockSerialAndParallelAgree drives the speculative executor
// head-to-head with its own serial mode on pathological all-conflicting
// blocks (every transaction touches the same two accounts).
func TestExecuteBlockSerialAndParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	reg := contract.NewRegistry(contract.Smallbank{})
	var exec Executor // one for both modes, every round
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(16)
		invs := make([]txn.Invocation, n)
		for i := range invs {
			amt := string(contract.EncodeInt64(int64(30 + rng.Intn(90))))
			if i%2 == 0 {
				invs[i] = sbTx("send_payment", "acc0", "acc1", amt)
			} else {
				invs[i] = sbTx("send_payment", "acc1", "acc0", amt)
			}
		}
		serial := newSmallbankStore(t)
		parallel := newSmallbankStore(t)
		run := func(st *state.Store, workers int) {
			rws, errs := exec.ExecuteBlock(n, workers, 2, st,
				func(i int, view contract.StateReader) (txn.RWSet, error) {
					return reg.Execute(view, invs[i])
				})
			blk := st.NewBlock()
			for i := range invs {
				if errs[i] == nil {
					blk.StageAll(rws[i].Writes, txn.Version{BlockNum: 2, TxNum: uint32(i)})
				}
			}
			if err := blk.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		run(serial, 1)
		run(parallel, 8)
		diffDumps(t, fmt.Sprintf("round=%d", round), dumpStore(serial), dumpStore(parallel))
		serial.Close()
		parallel.Close()
	}
}
