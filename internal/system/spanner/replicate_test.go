package spanner

import (
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// With every replica of a shard down, a write backs off until the
// deadline and reports the shard unavailable. The deadline is the shared
// 30 s; the test shortens it on the shard's Replicator.
func TestReplicateUnavailableWhenAllReplicasCrashed(t *testing.T) {
	c := clusterUp(t, Config{Shards: 1, NodesPerShard: 3})
	for i := 0; i < c.ShardReplicas(0); i++ {
		c.CrashReplica(0, i)
	}
	sh := c.shards[0]
	sh.Deadline = 30 * time.Millisecond
	start := time.Now()
	var err error
	if n := system.CountGiveUps(func() {
		err = sh.replicate(&shardCmd{phase: phaseApply, writes: []txn.Write{{Key: "a", Value: []byte("v")}}})
	}); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if err == nil || err.Error() != "spanner: shard unavailable" {
		t.Fatalf("replicate into a dead shard: %v, want spanner: shard unavailable", err)
	}
	if d := time.Since(start); d < sh.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, sh.Deadline)
	}
}

// A read routed to a shard with every replica down fails, naming the shard,
// as TiDB's does: it does not read the key as absent. (At the parent the
// get committed with no value.)
func TestReadFromDeadShardErrors(t *testing.T) {
	c := clusterUp(t, Config{Shards: 2, NodesPerShard: 3})
	client := cryptoutil.MustNewSigner("client")
	if r := c.Execute(kvTx(t, client, "put", "k", "v")); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	shard := c.part.Shard("k")
	for i := 0; i < c.ShardReplicas(shard); i++ {
		c.CrashReplica(shard, i)
	}
	want := fmt.Sprintf("spanner: shard %d has no live replica", shard)
	if r := c.Execute(kvTx(t, client, "get", "k")); r.Committed || r.Err == nil || r.Err.Error() != want {
		t.Fatalf("get from a dead shard: %+v, want the error %q", r, want)
	}
}
