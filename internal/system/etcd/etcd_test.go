package etcd

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/storage/bptree"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

func newCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c := New(Config{Nodes: nodes})
	t.Cleanup(c.Close)
	return c
}

func TestPutGet(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestGetMissing(t *testing.T) {
	c := newCluster(t, 3)
	v, err := c.Get("ghost")
	if err != nil || v != nil {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestDelete(t *testing.T) {
	c := newCluster(t, 3)
	c.Put("k", []byte("v"))
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get("k"); v != nil {
		t.Fatal("deleted key visible")
	}
}

func TestAllReplicasApply(t *testing.T) {
	c := newCluster(t, 3)
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The replica reads are served from has applied everything (Put waits
	// for the first apply); the others converge shortly after, to the same
	// content.
	if got := freshest(t, c).Len(); got != 50 {
		t.Fatalf("freshest replica has %d keys", got)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Applied(1) != c.Applied(0) || c.Applied(2) != c.Applied(0); {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: applied %d, %d, %d", c.Applied(0), c.Applied(1), c.Applied(2))
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < c.Replicas(); i++ {
		if c.State(i).Len() != 50 || !reflect.DeepEqual(c.Dump(i), c.Dump(0)) {
			t.Fatalf("replica %d holds %d keys, dump %v; replica 0's %v", i, c.State(i).Len(), c.Dump(i), c.Dump(0))
		}
	}
}

// freshest is the tree reads are served from.
func freshest(t *testing.T, c *Cluster) *bptree.Tree {
	t.Helper()
	tree, err := c.Freshest()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestConcurrentClients(t *testing.T) {
	c := newCluster(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := c.Put(fmt.Sprintf("w%d-k%d", w, i), []byte("v")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := freshest(t, c).Len(); got != 200 {
		t.Fatalf("freshest replica has %d keys, want 200", got)
	}
}

func TestExecuteAdapter(t *testing.T) {
	c := newCluster(t, 3)
	client := cryptoutil.MustNewSigner("client")
	put, _ := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: "put",
		Args: [][]byte{[]byte("k"), []byte("v")}})
	if r := c.Execute(put); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	get, _ := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: "get",
		Args: [][]byte{[]byte("k")}})
	r := c.Execute(get)
	if !r.Committed || !bytes.Equal(r.Value, []byte("v")) {
		t.Fatalf("get: %+v", r)
	}
}

func TestRejectsTransactionalWork(t *testing.T) {
	c := newCluster(t, 3)
	client := cryptoutil.MustNewSigner("client")
	sb, _ := txn.Sign(client, txn.Invocation{Contract: contract.SmallbankName, Method: "query",
		Args: [][]byte{[]byte("a")}})
	if r := c.Execute(sb); r.Err == nil {
		t.Fatal("etcd accepted a transactional workload")
	}
}

func TestStateBytes(t *testing.T) {
	c := newCluster(t, 3)
	before := c.StateBytes()
	if err := c.Put("key", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	// Node 0 (whose tree StateBytes reads) may apply shortly after the
	// first replica resolves the waiter.
	deadline := time.Now().Add(5 * time.Second)
	for c.StateBytes() <= before {
		if time.Now().After(deadline) {
			t.Fatal("state bytes did not grow")
		}
		time.Sleep(time.Millisecond)
	}
}

// An empty key is refused, as etcd's "key is not provided", before it
// reaches the log.
func TestEmptyKeyRefused(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.Put("", []byte("v")); err == nil || err.Error() != "etcd: key is not provided" {
		t.Fatalf("Put of the empty key: %v", err)
	}
}

// With every replica down a read errors, naming the cluster, instead of
// polling for a leader; a write gives up leaderless.
func TestDeadClusterErrors(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Replicas(); i++ {
		c.Crash(i)
	}
	if v, err := c.Get("k"); err == nil || err.Error() != "etcd: cluster has no live replica" {
		t.Fatalf("Get from a dead cluster: %q, %v", v, err)
	}
	c.Deadline = 30 * time.Millisecond
	var err error
	if n := system.CountGiveUps(func() { err = c.Put("k", []byte("w")) }); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if err == nil || err.Error() != "etcd: leaderless" {
		t.Fatalf("Put into a dead cluster: %v, want etcd: leaderless", err)
	}
}
