package spanner

import (
	"testing"
	"time"

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
	err := sh.replicate(&shardCmd{phase: phaseApply, writes: []txn.Write{{Key: "a", Value: []byte("v")}}})
	if err == nil || err.Error() != "spanner: shard unavailable" {
		t.Fatalf("replicate into a dead shard: %v, want spanner: shard unavailable", err)
	}
	if d := time.Since(start); d < sh.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, sh.Deadline)
	}
}
