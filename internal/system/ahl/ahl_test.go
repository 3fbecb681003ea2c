package ahl

import (
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/txn"
)

func clusterUp(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func kvTx(t *testing.T, client *cryptoutil.Signer, method string, args ...string) *txn.Tx {
	t.Helper()
	raw := make([][]byte, len(args))
	for i, a := range args {
		raw[i] = []byte(a)
	}
	tx, err := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: method, Args: raw})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestSingleShardCommit(t *testing.T) {
	c := clusterUp(t, Config{Shards: 2, NodesPerShard: 4})
	client := cryptoutil.MustNewSigner("client")
	if r := c.Execute(kvTx(t, client, "put", "alpha", "1")); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	if r := c.Execute(kvTx(t, client, "get", "alpha")); !r.Committed {
		t.Fatalf("get: %+v", r)
	}
}

func TestCrossShardTransactionAtomic(t *testing.T) {
	c := clusterUp(t, Config{Shards: 4, NodesPerShard: 4})
	client := cryptoutil.MustNewSigner("client")
	// Find two keys living on different shards.
	var k1, k2 string
	for i := 0; ; i++ {
		k := fmt.Sprintf("key-%d", i)
		if k1 == "" {
			k1 = k
			continue
		}
		if c.part.Shard(k) != c.part.Shard(k1) {
			k2 = k
			break
		}
	}
	r := c.Execute(kvTx(t, client, "multi", k1, "v1", k2, "v2"))
	if !r.Committed {
		t.Fatalf("cross-shard multi: %+v", r)
	}
	// Both writes visible.
	for _, k := range []string{k1, k2} {
		if _, ok := c.ReadState(k); !ok {
			t.Fatalf("key %s missing after cross-shard commit", k)
		}
	}
}

func TestSmallbankOnShards(t *testing.T) {
	c := clusterUp(t, Config{Shards: 2, NodesPerShard: 4})
	client := cryptoutil.MustNewSigner("client")
	create := func(id string) {
		tx, _ := txn.Sign(client, txn.Invocation{Contract: contract.SmallbankName,
			Method: "create_account",
			Args:   [][]byte{[]byte(id), contract.EncodeInt64(100), contract.EncodeInt64(50)}})
		if r := c.Execute(tx); !r.Committed {
			t.Fatalf("create %s: %+v", id, r)
		}
	}
	create("a1")
	create("a2")
	pay, _ := txn.Sign(client, txn.Invocation{Contract: contract.SmallbankName,
		Method: "send_payment",
		Args:   [][]byte{[]byte("a1"), []byte("a2"), contract.EncodeInt64(25)}})
	if r := c.Execute(pay); !r.Committed {
		t.Fatalf("payment: %+v", r)
	}
	// Balance conservation across shards.
	total := int64(0)
	for _, g := range c.shards {
		sh, err := g.Freshest()
		if err != nil {
			t.Fatal(err)
		}
		sh.store.Range(func(k string, v []byte) bool {
			if len(k) > 4 && (k[:4] == "chk:" || k[:4] == "sav:") {
				total += contract.DecodeInt64(v)
			}
			return true
		})
	}
	if total != 300 {
		t.Fatalf("total balance = %d, want 300", total)
	}
}

func TestReconfigurationRotates(t *testing.T) {
	c := clusterUp(t, Config{
		Shards: 2, NodesPerShard: 4, Reconfigure: true,
		ReconfigureEvery: 50 * time.Millisecond, ReconfigurePause: 10 * time.Millisecond,
	})
	client := cryptoutil.MustNewSigner("client")
	deadline := time.Now().Add(10 * time.Second)
	for c.Rotations() < 2 && time.Now().Before(deadline) {
		if r := c.Execute(kvTx(t, client, "put", "k", "v")); r.Err != nil {
			t.Fatalf("put during reconfig: %v", r.Err)
		}
	}
	if c.Rotations() < 2 {
		t.Fatal("reconfiguration never rotated")
	}
}

func TestNames(t *testing.T) {
	fixed := clusterUp(t, Config{Shards: 1, NodesPerShard: 4})
	if fixed.Name() != "ahl-fixed" {
		t.Fatalf("Name = %q", fixed.Name())
	}
	periodic := clusterUp(t, Config{Shards: 1, NodesPerShard: 4, Reconfigure: true,
		ReconfigureEvery: time.Hour, ReconfigurePause: time.Millisecond})
	if periodic.Name() != "ahl-periodic" {
		t.Fatalf("Name = %q", periodic.Name())
	}
}
