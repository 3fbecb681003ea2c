// Goroutine-leak lifecycle tests: every system spins up committers,
// orderers, appliers, and checkpoint workers, and Close must reap all
// of them. A leaked goroutine here means a background worker survived
// shutdown — exactly the kind of bug that turns a clean benchmark
// harness into one that measures its own garbage.
package system_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/sharding"
	"dichotomy/internal/system"
	"dichotomy/internal/system/ahl"
	"dichotomy/internal/system/etcd"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/system/spanner"
	"dichotomy/internal/system/tidb"
)

// driveSmallLoad commits a handful of transactions so the pipeline,
// checkpointer, and appliers all wake up at least once.
func driveSmallLoad(t *testing.T, sys system.System, client *cryptoutil.Signer) {
	t.Helper()
	r := sys.Execute(signTx(t, client, contract.SmallbankName, "create_account",
		"leak0", string(contract.EncodeInt64(0)), string(contract.EncodeInt64(0))))
	if !r.Committed {
		t.Fatalf("create_account: %+v", r)
	}
	for i := 0; i < 8; i++ {
		sys.Execute(signTx(t, client, contract.SmallbankName, "deposit_checking",
			"leak0", string(contract.EncodeInt64(int64(i+1)))))
	}
}

func TestFabricCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	nw, err := fabric.New(fabric.Config{
		Peers:              4,
		EndorsementsNeeded: 3,
		BlockSize:          4,
		BlockTimeout:       2 * time.Millisecond,
		ValidationWorkers:  2,
		PipelineDepth:      2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.RegisterClient(client.Name(), client.Public())
	driveSmallLoad(t, nw, client)
	nw.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestFabricCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	nw, err := fabric.New(fabric.Config{
		Peers:              4,
		EndorsementsNeeded: 3,
		BlockSize:          4,
		BlockTimeout:       2 * time.Millisecond,
		ValidationWorkers:  2,
		PipelineDepth:      2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.RegisterClient(client.Name(), client.Public())
	driveSmallLoad(t, nw, client)
	// A crash/recover cycle replaces the peer's worker set; the old
	// one must be gone and the new one must still honour Close.
	nw.CrashPeer(2)
	driveSmallLoad(t, nw, client)
	if _, err := nw.RecoverPeer(2, 0, 0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	driveSmallLoad(t, nw, client)
	nw.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestQuorumCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	nw, err := quorum.New(quorum.Config{
		Nodes:              3,
		Consensus:          quorum.Raft,
		BlockSize:          4,
		BlockInterval:      2 * time.Millisecond,
		ExecutionWorkers:   2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.RegisterClient(client.Name(), client.Public())
	driveSmallLoad(t, nw, client)
	nw.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestQuorumCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	nw, err := quorum.New(quorum.Config{
		Nodes:              3,
		Consensus:          quorum.Raft,
		BlockSize:          4,
		BlockInterval:      2 * time.Millisecond,
		ExecutionWorkers:   2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nw.RegisterClient(client.Name(), client.Public())
	driveSmallLoad(t, nw, client)
	// Crash a follower: a crashed leader halts proposals until re-election.
	leader := nw.Leader()
	victim := (leader + 1) % 3
	nw.CrashNode(victim)
	driveSmallLoad(t, nw, client)
	if _, err := nw.RecoverNode(victim, leader, 0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	driveSmallLoad(t, nw, client)
	nw.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestVeritasCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	v, err := hybrid.NewVeritas(hybrid.VeritasConfig{
		Verifiers:          2,
		BatchSize:          4,
		BatchTimeout:       2 * time.Millisecond,
		ValidationWorkers:  2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveSmallLoad(t, v, client)
	v.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestVeritasCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	v, err := hybrid.NewVeritas(hybrid.VeritasConfig{
		Verifiers:          2,
		BatchSize:          4,
		BatchTimeout:       2 * time.Millisecond,
		ValidationWorkers:  2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
		AuthState:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveSmallLoad(t, v, client)
	v.CrashVerifier(1) // verifier 0 executes and acks; crash the other
	driveSmallLoad(t, v, client)
	if _, err := v.RecoverVerifier(1, 0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	driveSmallLoad(t, v, client)
	v.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestBigchainCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	b, err := hybrid.NewBigchain(hybrid.BigchainConfig{
		Nodes:              3,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveSmallLoad(t, b, client)
	b.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestBigchainCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	b, err := hybrid.NewBigchain(hybrid.BigchainConfig{
		Nodes:              4,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveSmallLoad(t, b, client)
	b.CrashValidator(2)
	driveSmallLoad(t, b, client)
	if _, err := b.RecoverValidator(2, 0, 0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	driveSmallLoad(t, b, client)
	b.Close()
	system.AssertGoroutinesReturn(t, base)
}

// TestFailedSetupReapsGoroutines: a constructor that fails after it has
// started a replica's engine and root maintainer must stop them again.
// The checkpoint directory of each system's first replica is pre-created
// as a regular file, so the checkpointer — the last step of the replica's
// set-up — cannot make it.
func TestFailedSetupReapsGoroutines(t *testing.T) {
	cases := []struct {
		name, replica string
		open          func(dataDir string) (system.System, error)
	}{
		{"fabric", "peer0", func(dir string) (system.System, error) {
			return fabric.New(fabric.Config{Peers: 2, DataDir: dir, CheckpointInterval: 2, AuthState: true})
		}},
		{"quorum", "node0", func(dir string) (system.System, error) {
			return quorum.New(quorum.Config{Nodes: 3, DataDir: dir, CheckpointInterval: 2})
		}},
		{"veritas", "verifier0", func(dir string) (system.System, error) {
			return hybrid.NewVeritas(hybrid.VeritasConfig{Verifiers: 2, DataDir: dir, CheckpointInterval: 2, AuthState: true})
		}},
		{"bigchain", "validator0", func(dir string) (system.System, error) {
			return hybrid.NewBigchain(hybrid.BigchainConfig{Nodes: 4, DataDir: dir, CheckpointInterval: 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := system.GoroutineBaseline()
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, tc.replica), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, tc.replica, "ckpt"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			// Several attempts, so that even one goroutine leaked per
			// failure exceeds assertGoroutinesReturn's slack.
			for attempt := 0; attempt < 4; attempt++ {
				if sys, err := tc.open(dir); err == nil {
					sys.Close()
					t.Fatal("constructor succeeded over an unusable checkpoint directory")
				}
			}
			system.AssertGoroutinesReturn(t, base)
		})
	}
}

func TestTiDBCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	c := tidb.New(tidb.Config{
		Servers:            2,
		StorageNodes:       3,
		Regions:            2,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	driveSmallLoad(t, c, client)
	// Crash one replica of every region, keep committing on the raft
	// majority, then recover: the replaced applier/checkpoint workers
	// must all honour Close and the crashed ones must already be gone.
	for r := 0; r < c.Regions(); r++ {
		c.CrashReplica(r, 2)
	}
	driveSmallLoad(t, c, client)
	for r := 0; r < c.Regions(); r++ {
		if _, err := c.RecoverReplica(r, 2); err != nil {
			t.Fatalf("recover region %d: %v", r, err)
		}
	}
	driveSmallLoad(t, c, client)
	c.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestSpannerCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	c := spanner.New(spanner.Config{
		Shards:             2,
		NodesPerShard:      3,
		DataDir:            t.TempDir(),
		CheckpointInterval: 2,
	})
	driveSmallLoad(t, c, client)
	for s := 0; s < c.Shards(); s++ {
		c.CrashReplica(s, 2)
	}
	driveSmallLoad(t, c, client)
	for s := 0; s < c.Shards(); s++ {
		if _, err := c.RecoverReplica(s, 2); err != nil {
			t.Fatalf("recover shard %d: %v", s, err)
		}
	}
	driveSmallLoad(t, c, client)
	c.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestEtcdCrashRecoveryCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	c := etcd.New(etcd.Config{Nodes: 3})
	// etcd rejects Smallbank; plain puts wake the same appliers.
	put := func() {
		for i := 0; i < 8; i++ {
			if err := c.Put(fmt.Sprintf("leak%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	put()
	c.Crash(2)
	put()
	if _, err := c.Recover(2); err != nil {
		t.Fatalf("recover: %v", err)
	}
	put()
	c.Close()
	system.AssertGoroutinesReturn(t, base)
}

func TestAHLCloseReapsGoroutines(t *testing.T) {
	base := system.GoroutineBaseline()
	client := cryptoutil.MustNewSigner("leak-client")
	c := ahl.New(ahl.Config{
		Shards:           2,
		NodesPerShard:    4,
		Reconfigure:      true,
		ReconfigureEvery: 20 * time.Millisecond,
		ReconfigurePause: time.Millisecond,
	})
	driveSmallLoad(t, c, client)
	// Cross-shard load: every shard group and the 2PC committee sequence
	// something, so every apply loop and Resend lap has work behind it.
	part := sharding.HashPartitioner{N: 2}
	a, b := "leak-a", ""
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("leak-b%d", i); part.Shard(k) != part.Shard(a) {
			b = k
		}
	}
	// Keep it up until the reconfigurer has rotated at least once.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 8 || c.Rotations() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("the reconfigurer never rotated under load")
		}
		if r := c.Execute(signTx(t, client, contract.KVName, "multi", a, fmt.Sprint(i), b, fmt.Sprint(i))); !r.Committed {
			t.Fatalf("cross-shard multi: %+v", r)
		}
	}
	c.Close()
	system.AssertGoroutinesReturn(t, base)
}
