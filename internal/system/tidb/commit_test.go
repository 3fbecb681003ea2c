package tidb

import (
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/cluster"
)

// keysInRegions returns n keys of distinct regions, in the order found.
func keysInRegions(c *Cluster, n int) []string {
	var keys []string
	seen := map[int]bool{}
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("kv/k%d", i)
		if r := c.part.Shard(k); !seen[r] {
			seen[r] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// commitTS returns key's newest commit timestamp on its region's freshest
// replica.
func commitTS(t *testing.T, c *Cluster, key string) uint64 {
	t.Helper()
	store, err := c.regionOf(key).Freshest()
	if err != nil {
		t.Fatal(err)
	}
	return store.LatestCommitTS(key)
}

// The secondaries commit in one round after the primary: with every
// message inside the first secondary's region held for 20 ms — under
// raft's 30 ms election timeout, so its elected leader stands — the other
// secondaries' commit records are applied while that one is still on its
// way. Proposed one after another, no secondary behind the first could be
// applied before it.
func TestSecondariesCommitConcurrently(t *testing.T) {
	c := clusterUp(t, Config{StorageNodes: 3, Regions: 4})
	keys := keysInRegions(c, 4) // the primary, then three secondaries
	// A first write to every region elects its leaders before the hold.
	base := map[string]uint64{}
	for _, k := range keys {
		if err := c.RawPut(k, []byte("v0")); err != nil {
			t.Fatal(err)
		}
		base[k] = commitTS(t, c, k)
	}
	committed := func(k string) bool { return commitTS(t, c, k) > base[k] }
	held := c.part.Shard(keys[1])
	inHeld := func(id cluster.NodeID) bool { return (int(id)-100000)/1000 == held }
	c.SetFaults(func(from, to cluster.NodeID) (bool, time.Duration) {
		if inHeld(from) && inHeld(to) {
			return false, 20 * time.Millisecond
		}
		return false, 0
	})
	tx := c.NewTxn()
	for _, k := range keys {
		tx.Write(k, []byte("v1"))
	}
	done := make(chan error, 1)
	go func() { done <- tx.Commit(nil) }()
	deadline := time.Now().Add(10 * time.Second)
	for !committed(keys[2]) || !committed(keys[3]) {
		select {
		case err := <-done:
			t.Fatalf("Commit returned %v before the other secondaries were seen committed", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("the other secondaries were never committed")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if committed(keys[1]) {
		t.Fatal("the held secondary was applied before the others: the secondaries commit one after another")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !committed(keys[1]) {
		t.Fatal("Commit returned before the held secondary was applied")
	}
}
