package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ingress"
	"dichotomy/internal/ledger"
	"dichotomy/internal/metrics"
	"dichotomy/internal/recovery"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/txn"
	"dichotomy/internal/workload/smallbank"
	"dichotomy/internal/workload/ycsb"
)

// workload is one set of inputs the benchmark runs. window and rate are
// constants of the workload, sized once against this repository's seed
// commit (see README "Bounds and how they were measured"); they never
// adapt to the system under test, so parent and change get identical
// offered load.
type workload struct {
	name string
	why  string
	// window is W, the outstanding handles of the closed-loop sat phase.
	window int
	// rate is R, the open-loop arrival rate (tx/s) of the paced phase —
	// 35–40 % of the seed commit's saturation, so no backlog grows.
	rate float64
	// satTPS is the seed commit's saturation throughput, used only to
	// size the pre-signed pool (×poolMargin); a faster system spills
	// into inline generation, reported as client.pool_spill.
	satTPS float64
	// crashCycles is how many CrashPeer/RecoverPeer cycles the paced
	// phase runs (0 = none).
	crashCycles int
	// topPhases are the Tx.Trace phases that do not nest inside another
	// on this system; the client span minus their sum is unattributed.
	topPhases []string
	build     func(dataDir string) (*target, error)
	source    func(seed int64, client *cryptoutil.Signer) txSource
	preload   func(loader *cryptoutil.Signer) ([]*txn.Tx, error)
	// verify is the workload's acknowledged-commit check, run after the
	// replicas have converged.
	verify func(t *target, recs []record) error
}

// txSource is what the repository's workload generators already are.
type txSource interface {
	Next() (*txn.Tx, error)
}

// target is a built system plus the read-only accessors the correctness
// gate and the S-kind per-layer metrics need.
type target struct {
	sys system.System
	// register makes a client identity known (ledger systems only).
	register func(name string, pub cryptoutil.PublicKey)
	// converge waits until every replica holds the same state and
	// returns an error describing the first divergence otherwise.
	converge func() error
	// counters snapshots the system's own Stats()-style accessors.
	counters func() counters
	// crash and recover drive the fault schedule (crash workload only).
	crash   func()
	recover func() (recovery.Stats, error)
	// ledger exposes replica i's chain (ledger systems only).
	ledger  func(i int) *ledger.Ledger
	dataDir string
}

func (t *target) close() {
	t.sys.Close()
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir) // scratch under .bench_build; a leftover is harmless
	}
}

// counters is the union of the existing accessors' monotone counts; a
// system leaves what it does not have at zero.
type counters struct {
	ingress       ingress.Stats
	dropped       uint64 // consensus-transport drops
	rootLagBlocks uint64 // ledger height minus the published root's height
	sigHits       uint64
	sigMisses     uint64
	diskBytes     int64
	wwConflicts   uint64 // TiDB prewrite conflicts
}

const (
	ycsbRecordSize = 1000
	fabricRecords  = 2000
	tidbRecords    = 5000
	accounts       = 2000
	// preloadBatch is how many records one preload `multi` carries; the
	// systems see 1/10th of the transactions a put-per-record load would
	// cost, which keeps setup_s dominated by build and signing.
	preloadBatch = 10
)

var workloads = []workload{
	{
		name: "fabric-update",
		why: "execute-order-validate with the crypto bill on the commit path: txn, cryptoutil, sharedlog, " +
			"pipeline, occ, state, ledger do the work; ingress, mpt, lsm, mvcc do none",
		window: 32, rate: 350, satTPS: 900,
		topPhases: []string{metrics.PhaseProposal, metrics.PhaseOrder},
		build:     func(string) (*target, error) { return buildFabric(fabric.Config{Peers: 4, Orderers: 3}) },
		source:    ycsbSource(ycsb.Config{Records: fabricRecords, RecordSize: ycsbRecordSize}),
		preload:   ycsbPreload(fabricRecords),
		verify:    verifyKV,
	},
	{
		name: "quorum-smallbank-skew",
		why: "order-execute with serial in-block execution, the ingress door and the authenticated state: " +
			"ingress, raft, contract, mpt/authstate, state dominate; one client signature, so cryptoutil barely shows",
		window: 64, rate: 1500, satTPS: 3800,
		topPhases: []string{metrics.PhaseProposal, metrics.PhaseExecute},
		build: func(string) (*target, error) {
			return buildQuorum(quorum.Config{Nodes: 4, Consensus: quorum.Raft, Ingress: &ingress.Config{}})
		},
		source:  smallbankSource(smallbankConfig),
		preload: func(loader *cryptoutil.Signer) ([]*txn.Tx, error) { return smallbankConfig.LoadTxs(loader) },
		verify:  verifyLedgerInclusion,
	},
	{
		name: "tidb-mixed",
		why: "the database side and reads beside writes: mvcc, tso, twopc, region raft, sql do the work; " +
			"no signature, ledger or trie cost, so it is the bypass workload for every ledger-side optimisation",
		window: 32, rate: 1000, satTPS: 3400,
		topPhases: []string{metrics.PhaseSQLParse, metrics.PhaseSQLPlan, metrics.PhaseStorage, metrics.PhaseCommit},
		build: func(string) (*target, error) {
			return buildTiDB(tidb.Config{Servers: 3, StorageNodes: 3, Regions: 8}), nil
		},
		source: ycsbSource(ycsb.Config{
			Records: tidbRecords, RecordSize: ycsbRecordSize, Theta: 0.6, OpsPerTxn: 4, ReadFraction: 0.5,
		}),
		preload: ycsbPreload(tidbRecords),
		verify:  verifyKV,
	},
	{
		name: "fabric-durable-crash",
		why: "the fabric-update layers used differently — LSM+WAL engine, delta checkpoints on the commit path, " +
			"a crash/recover schedule under load: lsm, recovery, ledger replay and txn.Unmarshal do work they do not do there",
		window: 32, rate: 300, satTPS: 800, crashCycles: 4,
		topPhases: []string{metrics.PhaseProposal, metrics.PhaseOrder},
		build: func(dir string) (*target, error) {
			return buildFabric(fabric.Config{
				Peers: 4, Orderers: 3, EndorsementsNeeded: 3,
				DataDir: dir, CheckpointInterval: 16, CheckpointMode: recovery.ModeDelta,
			})
		},
		source:  ycsbSource(ycsb.Config{Records: fabricRecords, RecordSize: ycsbRecordSize}),
		preload: ycsbPreload(fabricRecords),
		verify:  verifyKV,
	},
}

// smallbankConfig funds accounts so that business-rule aborts are rare:
// abort behaviour under skew should come from the system, not from
// accounts running dry.
var smallbankConfig = smallbank.Config{Accounts: accounts, Theta: 1, InitialBalance: 1_000_000_000}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func ycsbSource(cfg ycsb.Config) func(int64, *cryptoutil.Signer) txSource {
	return func(seed int64, client *cryptoutil.Signer) txSource {
		cfg.Seed = seed
		return ycsb.NewGenerator(cfg, client)
	}
}

func smallbankSource(cfg smallbank.Config) func(int64, *cryptoutil.Signer) txSource {
	return func(seed int64, client *cryptoutil.Signer) txSource {
		cfg.Seed = seed
		return smallbank.NewGenerator(cfg, client)
	}
}

// ycsbPreload populates records through `multi` transactions, each
// writing preloadBatch records, so the systems receive the load through
// Submit like any other input.
func ycsbPreload(records int) func(*cryptoutil.Signer) ([]*txn.Tx, error) {
	return func(loader *cryptoutil.Signer) ([]*txn.Tx, error) {
		value := make([]byte, ycsbRecordSize)
		for i := range value {
			value[i] = 'x'
		}
		txs := make([]*txn.Tx, 0, records/preloadBatch+1)
		for lo := 0; lo < records; lo += preloadBatch {
			args := make([][]byte, 0, 2*preloadBatch)
			for i := lo; i < min(lo+preloadBatch, records); i++ {
				args = append(args, []byte(ycsb.Key(i)), value)
			}
			t, err := txn.Sign(loader, txn.Invocation{Contract: contract.KVName, Method: "multi", Args: args})
			if err != nil {
				return nil, err
			}
			txs = append(txs, t)
		}
		return txs, nil
	}
}

// preloadPatience is how long a loader waits for one load transaction
// before sending it again under the spare identity. A record the ordering
// service accepted can be lost when its raft leader changes, and the
// systems' own commit timeout is 60 s (README, Findings); set-up must
// not hang on that. Re-sending is safe: every load write is idempotent.
const preloadPatience = 3 * time.Second

// runPreload submits the load transactions closed-loop through Submit
// and requires every one to commit. spare signs the re-sent copies, so
// they carry a new ID and are not mistaken for the pending original.
func runPreload(sys system.System, txs []*txn.Tx, spare *cryptoutil.Signer) error {
	// Wide enough that batching, not round trips, bounds the load time;
	// narrow enough to leave the raft tickers their share of two CPUs — at
	// 64 loaders one set-up in seven lost a record to an election.
	const loaders = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	take := func() *txn.Tx {
		mu.Lock()
		defer mu.Unlock()
		if first != nil || next >= len(txs) {
			return nil
		}
		next++
		return txs[next-1]
	}
	load := func(t *txn.Tx) error {
		var r system.Result
		for attempt := 0; attempt < 4; attempt++ {
			if attempt > 0 {
				var err error
				if t, err = txn.Sign(spare, t.Invocation); err != nil {
					return err
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), preloadPatience)
			h, err := sys.Submit(ctx, t)
			if err != nil {
				cancel()
				return err
			}
			r = h.Wait(ctx)
			cancel()
			// Silence is re-sent; so is an abort, which a re-sent copy gets
			// when the original was only slow and the two met in a block.
			out := classify(r)
			if out == committed {
				return nil
			}
			if out != aborted && !errors.Is(r.Err, context.DeadlineExceeded) {
				break
			}
		}
		return fmt.Errorf("preload %s: committed=%v reason=%v err=%v", t.Invocation.Method, r.Committed, r.Reason, r.Err)
	}
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := take(); t != nil; t = take() {
				if err := load(t); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

func buildFabric(cfg fabric.Config) (*target, error) {
	nw, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	// The fault schedule crashes peer 2 and recovers it from peer 0.
	const peers, victim, healthy = 4, 2, 0
	t := &target{sys: nw, register: nw.RegisterClient, ledger: nw.Ledger}
	t.converge = func() error {
		return convergeLedgers(peers, nw.Ledger, nw.State, nil)
	}
	t.counters = func() counters {
		c := counters{dropped: nw.ConsensusDropped(), diskBytes: dirBytes(cfg.DataDir)}
		c.sigHits, c.sigMisses = cryptoutil.SigCacheStats()
		return c
	}
	t.crash = func() { nw.CrashPeer(victim) }
	t.recover = func() (recovery.Stats, error) { return nw.RecoverPeer(victim, healthy, 0) }
	return t, nil
}

func buildQuorum(cfg quorum.Config) (*target, error) {
	nw, err := quorum.New(cfg)
	if err != nil {
		return nil, err
	}
	const nodes = 4
	t := &target{sys: nw, register: nw.RegisterClient, ledger: nw.Ledger}
	t.converge = func() error {
		return convergeLedgers(nodes, nw.Ledger, nw.State, nw.StateRoot)
	}
	t.counters = func() counters {
		c := counters{dropped: nw.ConsensusDropped()}
		c.ingress, _ = nw.IngressStats()
		if l, a := nw.Ledger(0), nw.Auth(0); l != nil && a != nil {
			if up, ok := a.Published(); ok && l.Height() >= up.Root.Height {
				c.rootLagBlocks = l.Height() - up.Root.Height
			}
		}
		c.sigHits, c.sigMisses = cryptoutil.SigCacheStats()
		return c
	}
	return t, nil
}

func buildTiDB(cfg tidb.Config) *target {
	c := tidb.New(cfg)
	t := &target{sys: c}
	t.converge = func() error { return convergeRegions(c) }
	t.counters = func() counters {
		return counters{wwConflicts: c.WWConf.Load()}
	}
	return t
}

// dirBytes sums regular-file sizes under dir ("" = 0).
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		// Files vanish mid-walk while the engine compacts; the sum is a
		// sample either way.
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// newClients makes the rotating set of signing identities: transaction i is
// signed by client i mod len, so no two transactions closer than len
// share an ID even when their invocations are identical (IDs are content
// hashes over client name and invocation).
func newClients(n int) ([]*cryptoutil.Signer, error) {
	out := make([]*cryptoutil.Signer, n)
	for i := range out {
		s, err := cryptoutil.NewSigner(fmt.Sprintf("client-%03d", i))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// waitUntil polls cond until it holds or the budget runs out.
func waitUntil(budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		//lint:allow sleepyloop convergence poll over read-only accessors that offer no notification
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
