package tidb

import (
	"testing"
	"time"
)

// With every replica of a key's region down, a write backs off until the
// deadline and reports the region leaderless. The deadline is the shared
// 30 s; the test shortens it on the region's Replicator.
func TestProposeLeaderlessWhenAllReplicasCrashed(t *testing.T) {
	c := clusterUp(t, Config{StorageNodes: 3, Regions: 2})
	reg := c.regionOf("kv/a")
	for i := range reg.replicas {
		c.CrashReplica(reg.idx, i)
	}
	reg.repl.Deadline = 30 * time.Millisecond
	start := time.Now()
	err := c.RawPut("kv/a", []byte("v"))
	if err == nil || err.Error() != "tidb: region leaderless" {
		t.Fatalf("RawPut into a dead region: %v, want tidb: region leaderless", err)
	}
	if d := time.Since(start); d < reg.repl.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, reg.repl.Deadline)
	}
}
