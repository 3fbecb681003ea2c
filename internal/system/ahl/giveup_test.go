package ahl

import (
	"testing"
	"time"

	"dichotomy/internal/cryptoutil"
)

// A command whose sequencing gives up must not stay in the shard's
// payload box: no replica will ever take it. Before the fix sequence could
// not tell a give-up from an apply error and left the entry live on both
// give-up paths (etcd's twin tests are in etcd/giveup_test.go).

// settledShard commits one write on a one-shard cluster, so the box is
// empty before the test breaks the committee, and shortens the deadline.
func settledShard(t *testing.T) (*Cluster, *shard, *cryptoutil.Signer) {
	t.Helper()
	c := clusterUp(t, Config{Shards: 1, NodesPerShard: 4})
	client := cryptoutil.MustNewSigner("client")
	if r := c.Execute(kvTx(t, client, "put", "k", "v")); !r.Committed {
		t.Fatalf("warm-up put: %+v", r)
	}
	sh := c.shards[0]
	if got := sh.box.Len(); got != 0 {
		t.Fatalf("%d box entries live after the warm-up write", got)
	}
	sh.repl.Deadline = 30 * time.Millisecond
	return c, sh, client
}

func TestUnavailableGiveUpDropsBoxEntry(t *testing.T) {
	c, sh, client := settledShard(t)
	for _, n := range sh.nodes {
		n.Stop() // every Propose is refused from here on
	}
	start := time.Now()
	r := c.Execute(kvTx(t, client, "put", "k", "w"))
	if r.Err == nil || r.Err.Error() != "ahl: shard unavailable" {
		t.Fatalf("put with no live replica: %+v, want ahl: shard unavailable", r)
	}
	if d := time.Since(start); d < sh.repl.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, sh.repl.Deadline)
	}
	if got := sh.box.Len(); got != 0 {
		t.Fatalf("unavailable give-up left %d box entries live", got)
	}
}

func TestTimeoutGiveUpDropsBoxEntry(t *testing.T) {
	c, sh, client := settledShard(t)
	// Leave one replica without a quorum: it still accepts a proposal but
	// can never commit it.
	for _, n := range sh.nodes[1:] {
		n.Stop()
	}
	r := c.Execute(kvTx(t, client, "put", "k", "w"))
	if r.Err == nil || r.Err.Error() != "ahl: shard timeout" {
		t.Fatalf("put without a quorum: %+v, want ahl: shard timeout", r)
	}
	if got := sh.box.Len(); got != 0 {
		t.Fatalf("timeout give-up left %d box entries live", got)
	}
}
