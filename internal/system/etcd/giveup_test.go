package etcd

import (
	"testing"
	"time"
)

// A write that gives up must not leave its op in the payload box: before
// the fix both give-up paths returned with the entry still live.

// settled runs one write and waits until every node has applied it, so
// the box is empty before the test breaks the cluster.
func settled(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c := newCluster(t, nodes)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.box.Len() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d box entries still live after the warm-up write", c.box.Len())
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

func TestLeaderlessGiveUpDropsBoxEntry(t *testing.T) {
	c := settled(t, 3)
	for _, n := range c.nodes {
		n.cons.Stop() // every Propose is refused from here on
	}
	c.repl.Deadline = 30 * time.Millisecond
	start := time.Now()
	err := c.Put("k", []byte("w"))
	if err == nil || err.Error() != "etcd: leaderless" {
		t.Fatalf("Put with no live node: %v, want etcd: leaderless", err)
	}
	if d := time.Since(start); d < c.repl.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, c.repl.Deadline)
	}
	if got := c.box.Len(); got != 0 {
		t.Fatalf("leaderless give-up left %d box entries live", got)
	}
}

func TestApplyTimeoutDropsBoxEntry(t *testing.T) {
	c := settled(t, 3)
	// Leave the leader without a quorum: it still accepts a proposal but
	// can never commit it.
	lead := c.leader()
	for _, n := range c.nodes {
		if n != lead {
			n.cons.Stop()
		}
	}
	c.repl.Deadline = 30 * time.Millisecond
	err := c.Put("k", []byte("w"))
	if err == nil || err.Error() != "etcd: apply timeout" {
		t.Fatalf("Put without a quorum: %v, want etcd: apply timeout", err)
	}
	if got := c.box.Len(); got != 0 {
		t.Fatalf("apply timeout left %d box entries live", got)
	}
}
