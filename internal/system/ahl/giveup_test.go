package ahl

import (
	"testing"
	"time"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/system"
)

// A command the shard group cannot sequence gives up with the shard's own
// error text, no sooner than the deadline (etcd's twin tests are in
// etcd/giveup_test.go).

// settledShard commits one write on a one-shard cluster, then shortens
// the shard group's deadline.
func settledShard(t *testing.T) (*Cluster, *system.Group[shard], *cryptoutil.Signer) {
	t.Helper()
	c := clusterUp(t, Config{Shards: 1, NodesPerShard: 4})
	client := cryptoutil.MustNewSigner("client")
	if r := c.Execute(kvTx(t, client, "put", "k", "v")); !r.Committed {
		t.Fatalf("warm-up put: %+v", r)
	}
	sh := c.shards[0]
	sh.Deadline = 30 * time.Millisecond
	return c, sh, client
}

func TestUnavailableGiveUp(t *testing.T) {
	c, sh, client := settledShard(t)
	for i := 0; i < sh.Replicas(); i++ {
		sh.Crash(i) // every Propose is refused from here on
	}
	start := time.Now()
	var r system.Result
	if n := system.CountGiveUps(func() { r = c.Execute(kvTx(t, client, "put", "k", "w")) }); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if r.Err == nil || r.Err.Error() != "ahl: shard unavailable" {
		t.Fatalf("put with no live replica: %+v, want ahl: shard unavailable", r)
	}
	if d := time.Since(start); d < sh.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, sh.Deadline)
	}
}

func TestTimeoutGiveUp(t *testing.T) {
	c, sh, client := settledShard(t)
	// Leave one replica without a quorum: it still accepts a proposal but
	// can never commit it.
	for i := 1; i < sh.Replicas(); i++ {
		sh.Crash(i)
	}
	var r system.Result
	if n := system.CountGiveUps(func() { r = c.Execute(kvTx(t, client, "put", "k", "w")) }); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if r.Err == nil || r.Err.Error() != "ahl: shard timeout" {
		t.Fatalf("put without a quorum: %+v, want ahl: shard timeout", r)
	}
}
