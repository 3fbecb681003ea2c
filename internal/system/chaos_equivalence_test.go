// Crash-equivalence under CONTINUOUS load: the open-loop workload keeps
// committing straight through both the crash AND the recovery — no
// quiesce, no pause-the-world — and once the load finishes and the
// replicas converge, the recovered replica must be byte-identical
// (values AND versions) to one that never crashed. On top of the
// quiesced recovery_equivalence tests this proves the live-rejoin
// handoff: replay catches the drained tail while the network commits,
// the restarted consumer take-and-drops what replay covered, and blocks
// committed AFTER recovery reach the recovered replica through the
// ordinary pipeline (each test commits a post-recovery marker and
// requires it everywhere). Run with -race this also exercises the
// crash/recover transitions racing in-flight commits.
package system_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/recovery"
	"dichotomy/internal/system"
	"dichotomy/internal/system/etcd"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/system/spanner"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/txn"
)

// driveLoadThrough runs recWorkers×recIters conflicting Smallbank
// deposits against sys through driveThrough.
func driveLoadThrough(t *testing.T, sys system.System, client *cryptoutil.Signer, rng *rand.Rand, crash, recov func()) int64 {
	t.Helper()
	for i := 0; i < recAccounts; i++ {
		r := sys.Execute(signTx(t, client, contract.SmallbankName, "create_account",
			recAccount(i), string(contract.EncodeInt64(0)), string(contract.EncodeInt64(0))))
		if !r.Committed {
			t.Fatalf("create %s: %+v", recAccount(i), r)
		}
	}
	return driveThrough(t, sys, rng, func(w, i int) *txn.Tx {
		return signTx(t, client, contract.SmallbankName, "deposit_checking",
			recAccount((w+i)%recAccounts), string(contract.EncodeInt64(int64(w*recIters+i+1))))
	}, crash, recov)
}

// driveThrough runs recWorkers×recIters transactions tx(worker, i)
// against sys, crashing once a third of the way in and recovering once two
// thirds in — both while the other workers keep submitting. recov always
// runs strictly after crash completes, and both are guaranteed to have run
// by the time this returns. It returns how many committed.
func driveThrough(t *testing.T, sys system.System, rng *rand.Rand, tx func(w, i int) *txn.Tx, crash, recov func()) int64 {
	t.Helper()
	total := recWorkers * recIters
	crashAt := int64(1 + rng.Intn(total/3))
	recoverAt := crashAt + int64(1+rng.Intn(total/3))
	t.Logf("crash after %d, recover after %d of %d transactions", crashAt, recoverAt, total)
	crashDone := make(chan struct{})
	var crashOnce, recoverOnce sync.Once
	doCrash := func() { crash(); close(crashDone) }
	doRecover := func() { <-crashDone; recov() }
	var done atomic.Int64
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < recWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < recIters; i++ {
				if r := sys.Execute(tx(w, i)); r.Committed {
					committed.Add(1)
				}
				switch done.Add(1) {
				case crashAt:
					crashOnce.Do(doCrash)
				case recoverAt:
					recoverOnce.Do(doRecover)
				}
			}
		}(w)
	}
	wg.Wait()
	// Workers may race past the trigger counts; make sure both ran.
	crashOnce.Do(doCrash)
	recoverOnce.Do(doRecover)
	return committed.Load()
}

// marker commits one more transaction AFTER recovery has completed —
// the block that proves the recovered replica serves post-recovery
// traffic, not just the replayed prefix.
func marker(t *testing.T, sys system.System, client *cryptoutil.Signer) {
	t.Helper()
	// Conflict aborts are ordinary client-visible OCC behavior — a block
	// still in flight from the load can invalidate the marker's reads —
	// so retry as a client would; distinct amounts keep the
	// content-hashed transaction IDs distinct.
	var r system.Result
	for attempt := 0; attempt < 50; attempt++ {
		r = sys.Execute(signTx(t, client, contract.SmallbankName, "deposit_checking",
			recAccount(0), string(contract.EncodeInt64(int64(424242+attempt)))))
		if r.Committed {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("post-recovery marker never committed: %+v", r)
}

func requireSameBytes(t *testing.T, name string, healthy, recovered map[string][]byte) {
	t.Helper()
	if len(healthy) == 0 {
		t.Fatalf("%s: healthy replica has no state; load never committed", name)
	}
	if len(healthy) != len(recovered) {
		t.Fatalf("%s: recovered %d keys, healthy %d", name, len(recovered), len(healthy))
	}
	for k, v := range healthy {
		if string(recovered[k]) != string(v) {
			t.Fatalf("%s: key %q diverged:\n recovered %x\n healthy   %x", name, k, recovered[k], v)
		}
	}
}

func TestChaosEquivalenceFabric(t *testing.T) {
	recModes(t, testChaosEquivalenceFabric)
}

func testChaosEquivalenceFabric(t *testing.T, mode recovery.Mode) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	nw, err := fabric.New(fabric.Config{
		Peers:               4,
		EndorsementsNeeded:  3,
		BlockSize:           4,
		BlockTimeout:        2 * time.Millisecond,
		ValidationWorkers:   2,
		PipelineDepth:       2,
		DataDir:             t.TempDir(),
		CheckpointInterval:  recInterval,
		CheckpointMode:      mode,
		CheckpointFullEvery: recFullEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.RegisterClient(client.Name(), client.Public())

	const crashed = 2
	var stats recovery.Stats
	var recErr error
	committed := driveLoadThrough(t, nw, client, rng,
		func() { nw.CrashPeer(crashed) },
		func() { stats, recErr = nw.RecoverPeer(crashed, 0, 0) })
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	t.Logf("recovery: checkpoint@%d, replayed %d blocks to %d in %v",
		stats.CheckpointHeight, stats.ReplayedBlocks, stats.TipHeight, stats.Total())
	marker(t, nw, client)
	tip := waitHeights(t,
		func() uint64 { return nw.Ledger(0).Height() },
		func() uint64 { return nw.Ledger(1).Height() },
		func() uint64 { return nw.Ledger(crashed).Height() },
		func() uint64 { return nw.Ledger(3).Height() },
	)
	if tip <= stats.TipHeight {
		t.Fatalf("no block after recovery: tip %d, recovered at %d", tip, stats.TipHeight)
	}
	requireIdentical(t, "fabric", dumpVersioned(nw.State(0)), dumpVersioned(nw.State(crashed)))
	if nw.Ledger(crashed).Head().Hash() != nw.Ledger(0).Head().Hash() {
		t.Fatal("recovered ledger head diverges from healthy replica")
	}
	if err := nw.Ledger(crashed).Verify(); err != nil {
		t.Fatalf("recovered ledger fails verification: %v", err)
	}
}

func TestChaosEquivalenceQuorum(t *testing.T) {
	recModes(t, testChaosEquivalenceQuorum)
}

func testChaosEquivalenceQuorum(t *testing.T, mode recovery.Mode) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	nw, err := quorum.New(quorum.Config{
		Nodes:               4,
		Consensus:           quorum.Raft,
		BlockSize:           4,
		BlockInterval:       2 * time.Millisecond,
		ExecutionWorkers:    2,
		DataDir:             t.TempDir(),
		CheckpointInterval:  recInterval,
		CheckpointMode:      mode,
		CheckpointFullEvery: recFullEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.RegisterClient(client.Name(), client.Public())

	pickFollower := func() int {
		leader := nw.Leader()
		for _, cand := range []int{3, 2, 1} {
			if cand != leader {
				return cand
			}
		}
		return 3
	}
	var crashedIdx atomic.Int64
	var stats recovery.Stats
	var recErr error
	committed := driveLoadThrough(t, nw, client, rng,
		func() {
			idx := pickFollower()
			crashedIdx.Store(int64(idx))
			nw.CrashNode(idx)
		},
		func() {
			idx := int(crashedIdx.Load())
			healthy := 0
			if idx == 0 {
				healthy = 1
			}
			stats, recErr = nw.RecoverNode(idx, healthy, 0)
		})
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	idx := int(crashedIdx.Load())
	healthy := 0
	if idx == 0 {
		healthy = 1
	}
	t.Logf("recovery: checkpoint@%d, replayed %d blocks to %d in %v",
		stats.CheckpointHeight, stats.ReplayedBlocks, stats.TipHeight, stats.Total())
	marker(t, nw, client)
	var heightFns []func() uint64
	for i := 0; i < 4; i++ {
		led := nw.Ledger(i)
		heightFns = append(heightFns, func() uint64 { return led.Height() })
	}
	tip := waitHeights(t, heightFns...)
	if tip <= stats.TipHeight {
		t.Fatalf("no block after recovery: tip %d, recovered at %d", tip, stats.TipHeight)
	}
	requireIdentical(t, "quorum", dumpVersioned(nw.State(healthy)), dumpVersioned(nw.State(idx)))
	if nw.StateRoot(idx) != nw.StateRoot(healthy) {
		t.Fatal("recovered state root diverges from healthy replica")
	}
	// Head hashes are NOT compared: a quorum header embeds the latest
	// published state-root snapshot at seal time, which is an async
	// per-node observation, so self-built post-rejoin blocks may legally
	// embed an older root than a peer's. The ordered transaction content
	// must still be identical block for block.
	for bn := uint64(1); bn <= tip; bn++ {
		hb, ok1 := nw.Ledger(healthy).Block(bn)
		rb, ok2 := nw.Ledger(idx).Block(bn)
		if !ok1 || !ok2 {
			t.Fatalf("block %d missing (healthy %v, recovered %v)", bn, ok1, ok2)
		}
		if hb.Header.TxRoot != rb.Header.TxRoot {
			t.Fatalf("block %d tx root diverged", bn)
		}
	}
}

func TestChaosEquivalenceVeritas(t *testing.T) {
	recModes(t, testChaosEquivalenceVeritas)
}

func testChaosEquivalenceVeritas(t *testing.T, mode recovery.Mode) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	v, err := hybrid.NewVeritas(hybrid.VeritasConfig{
		Verifiers:           3,
		BatchSize:           4,
		BatchTimeout:        2 * time.Millisecond,
		ValidationWorkers:   2,
		DataDir:             t.TempDir(),
		CheckpointInterval:  recInterval,
		CheckpointMode:      mode,
		CheckpointFullEvery: recFullEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	const crashed = 1
	var recErr error
	committed := driveLoadThrough(t, v, client, rng,
		func() { v.CrashVerifier(crashed) },
		func() { _, recErr = v.RecoverVerifier(crashed, 0) })
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	marker(t, v, client)
	waitHeights(t,
		func() uint64 {
			if h := v.Height(0); h >= v.LogBatches() {
				return h
			}
			return 0
		},
		func() uint64 { return v.Height(crashed) },
	)
	requireIdentical(t, "veritas", dumpVersioned(v.State(0)), dumpVersioned(v.State(crashed)))
}

func TestChaosEquivalenceBigchain(t *testing.T) {
	recModes(t, testChaosEquivalenceBigchain)
}

func testChaosEquivalenceBigchain(t *testing.T, mode recovery.Mode) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	b, err := hybrid.NewBigchain(hybrid.BigchainConfig{
		Nodes:               4,
		DataDir:             t.TempDir(),
		CheckpointInterval:  3,
		CheckpointMode:      mode,
		CheckpointFullEvery: recFullEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const crashed = 2
	var stats recovery.Stats
	var recErr error
	committed := driveLoadThrough(t, b, client, rng,
		func() { b.CrashValidator(crashed) },
		func() { stats, recErr = b.RecoverValidator(crashed, 0, 0) })
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	t.Logf("recovery: checkpoint@%d, replayed %d txs to %d in %v",
		stats.CheckpointHeight, stats.ReplayedBlocks, stats.TipHeight, stats.Total())
	marker(t, b, client)
	tip := waitHeights(t,
		func() uint64 { return b.Height(0) },
		func() uint64 { return b.Height(1) },
		func() uint64 { return b.Height(crashed) },
		func() uint64 { return b.Height(3) },
	)
	if tip <= stats.TipHeight {
		t.Fatalf("no tx applied after recovery: tip %d, recovered at %d", tip, stats.TipHeight)
	}
	requireIdentical(t, "bigchain", dumpVersioned(b.State(0)), dumpVersioned(b.State(crashed)))
}

func TestChaosEquivalenceTiDB(t *testing.T) {
	recModes(t, testChaosEquivalenceTiDB)
}

func testChaosEquivalenceTiDB(t *testing.T, mode recovery.Mode) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	c := tidb.New(tidb.Config{
		Servers:             2,
		StorageNodes:        3,
		Regions:             2,
		DataDir:             t.TempDir(),
		CheckpointInterval:  4,
		CheckpointMode:      mode,
		CheckpointFullEvery: recFullEvery,
	})
	defer c.Close()

	// The unit of failure is a region replica: crash one raft member of
	// EVERY region (the regions keep committing on the surviving 2/3
	// quorum), recover them mid-load, and require each rebuilt replica's
	// full MVCC content — version chains and locks — byte-identical to
	// a replica of the same region that never crashed.
	const crashedRep = 2
	var recErr error
	committed := driveLoadThrough(t, c, client, rng,
		func() {
			for r := 0; r < c.Regions(); r++ {
				c.CrashReplica(r, crashedRep)
			}
		},
		func() {
			for r := 0; r < c.Regions(); r++ {
				if _, err := c.RecoverReplica(r, crashedRep); err != nil && recErr == nil {
					recErr = err
				}
			}
		})
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	marker(t, c, client)
	for r := 0; r < c.Regions(); r++ {
		var fns []func() uint64
		for i := 0; i < c.RegionReplicas(r); i++ {
			r, i := r, i
			fns = append(fns, func() uint64 { return c.ReplicaApplied(r, i) })
		}
		waitHeights(t, fns...)
		requireSameBytes(t, fmt.Sprintf("tidb region %d", r),
			c.DumpRegion(r, 0), c.DumpRegion(r, crashedRep))
	}
}

func TestChaosEquivalenceSpanner(t *testing.T) {
	recModes(t, testChaosEquivalenceSpanner)
}

func testChaosEquivalenceSpanner(t *testing.T, mode recovery.Mode) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	c := spanner.New(spanner.Config{
		Shards:              2,
		NodesPerShard:       3,
		DataDir:             t.TempDir(),
		CheckpointInterval:  4,
		CheckpointMode:      mode,
		CheckpointFullEvery: recFullEvery,
	})
	defer c.Close()

	const crashedRep = 2
	var recErr error
	committed := driveLoadThrough(t, c, client, rng,
		func() {
			for s := 0; s < c.Shards(); s++ {
				c.CrashReplica(s, crashedRep)
			}
		},
		func() {
			for s := 0; s < c.Shards(); s++ {
				if _, err := c.RecoverReplica(s, crashedRep); err != nil && recErr == nil {
					recErr = err
				}
			}
		})
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	marker(t, c, client)
	for s := 0; s < c.Shards(); s++ {
		var fns []func() uint64
		for i := 0; i < c.ShardReplicas(s); i++ {
			s, i := s, i
			fns = append(fns, func() uint64 { return c.ReplicaApplied(s, i) })
		}
		waitHeights(t, fns...)
		requireSameBytes(t, fmt.Sprintf("spanner shard %d", s),
			c.DumpShard(s, 0), c.DumpShard(s, crashedRep))
	}
}

// etcd's row: KV puts, because etcd rejects Smallbank, on a group with no
// checkpoint chains, so the recovered replica is rebuilt by whole-log
// re-replication. Four workers overwrite three keys.
func TestChaosEquivalenceEtcd(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	client := cryptoutil.MustNewSigner("chaos-client")
	c := etcd.New(etcd.Config{Nodes: 3})
	defer c.Close()

	const crashed = 2
	var recErr error
	committed := driveThrough(t, c, rng, func(w, i int) *txn.Tx {
		return signTx(t, client, contract.KVName, "put", recAccount(w+i), fmt.Sprintf("w%d-i%d", w, i))
	}, func() { c.Crash(crashed) }, func() { _, recErr = c.Recover(crashed) })
	if recErr != nil {
		t.Fatalf("recover: %v", recErr)
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	if r := c.Execute(signTx(t, client, contract.KVName, "put", "marker", "post-recovery")); !r.Committed {
		t.Fatalf("post-recovery marker: %+v", r)
	}
	var fns []func() uint64
	for i := 0; i < c.Replicas(); i++ {
		fns = append(fns, func() uint64 { return c.Applied(i) })
	}
	waitHeights(t, fns...)
	requireSameBytes(t, "etcd", c.Dump(0), c.Dump(crashed))
	if _, ok := c.Dump(crashed)["marker"]; !ok {
		t.Fatal("the post-recovery marker never reached the recovered replica")
	}
}
