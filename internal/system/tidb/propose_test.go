package tidb

import (
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/system"
)

// With every replica of a key's region down, a write backs off until the
// deadline and reports the region leaderless, and a read reports that no
// replica is live. The deadline is the shared 30 s; the test shortens it
// on the region's Replicator.
func TestProposeLeaderlessWhenAllReplicasCrashed(t *testing.T) {
	c := clusterUp(t, Config{StorageNodes: 3, Regions: 2})
	if err := c.RawPut("kv/a", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	reg := c.regionOf("kv/a")
	for i := 0; i < reg.Replicas(); i++ {
		reg.Crash(i)
	}
	reg.Deadline = 30 * time.Millisecond
	start := time.Now()
	var err error
	if n := system.CountGiveUps(func() { err = c.RawPut("kv/a", []byte("v")) }); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if err == nil || err.Error() != "tidb: region leaderless" {
		t.Fatalf("RawPut into a dead region: %v, want tidb: region leaderless", err)
	}
	if d := time.Since(start); d < reg.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, reg.Deadline)
	}

	// Reads have no replica to be served from either: an error naming the
	// region, not the abandoned store of a dead replica.
	region := c.part.Shard("kv/a")
	want := fmt.Sprintf("tidb: region %d has no live replica", region)
	if v, err := c.RawGet("kv/a"); err == nil || err.Error() != want {
		t.Fatalf("RawGet from a dead region: %q, %v, want %s", v, err, want)
	}
	if _, err := c.NewTxn().Get("kv/a"); err == nil || err.Error() != want {
		t.Fatalf("Txn.Get from a dead region: %v, want %s", err, want)
	}
}

// An empty key is refused before it reaches a region's log, as TiKV
// refuses it: a region's checkpoint records leave that key to the group.
func TestEmptyKeyRefused(t *testing.T) {
	c := clusterUp(t, Config{StorageNodes: 3, Regions: 2})
	if err := c.RawPut("", []byte("v")); err == nil || err.Error() != "tidb: empty key" {
		t.Fatalf("RawPut of the empty key: %v, want tidb: empty key", err)
	}
}
