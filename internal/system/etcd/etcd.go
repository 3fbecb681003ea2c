// Package etcd models etcd v3.3, the paper's NoSQL representative: a
// single Raft group fully replicating a key-value store backed by a
// copy-on-write B+tree (BoltDB), with one consensus instance sequencing
// all requests and strictly serial application.
//
// Serial execution makes etcd immune to workload skew (Fig 9's flat line)
// but ties its throughput to the Raft group size (Table 4's decay), and
// its relaxed transactional surface (single-op requests; no general
// transactions) is why the Smallbank experiment excludes it.
//
// How a replica boots, applies its log, dies and comes back is not etcd's:
// the cluster is one system.Group whose state machine is the B+tree. Each
// op rides encoded in its raft entry, and reads are served from the live
// replica that has applied the most (Freshest), so a resolved write is
// visible to the next read; a crashed replica is rebuilt by the leader
// re-replicating the whole log.
package etcd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/contract"
	"dichotomy/internal/metrics"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/bptree"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// Config assembles an etcd cluster.
type Config struct {
	// Nodes is the Raft group size.
	Nodes int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	return c
}

// Cluster is a running etcd deployment: one replicated group of B+trees.
type Cluster struct {
	system.Blocking
	*system.Group[bptree.Tree]
	net *cluster.Network

	closeOne sync.Once
}

var _ system.System = (*Cluster)(nil)

// New assembles and starts a cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{net: cluster.NewNetwork(cluster.ZeroLink{})}
	c.Blocking = system.NewBlocking(c.execute)
	peers := make([]cluster.NodeID, cfg.Nodes)
	for i := range peers {
		peers[i] = cluster.NodeID(i)
	}
	c.Group = system.NewGroup(system.GroupConfig[bptree.Tree]{
		Label:      "etcd: cluster",
		Net:        c.net,
		Peers:      peers,
		New:        bptree.New,
		Apply:      apply,
		Dump:       dump,
		Restore:    func(t *bptree.Tree, key string, value []byte) error { return t.Put([]byte(key), value) },
		Leaderless: "etcd: leaderless",
		Timeout:    "etcd: apply timeout",
	})
	return c
}

// Name implements system.System.
func (c *Cluster) Name() string { return "etcd" }

// encodeOp returns an op's log entry: the group's header, left for
// Propose to fill in, then the body (big-endian)
//
//	del u8 | klen u32 | key | value
func encodeOp(del bool, key string, value []byte) []byte {
	buf := make([]byte, consensus.Header, consensus.Header+1+4+len(key)+len(value))
	if del {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	return append(buf, value...)
}

// apply is the group's Apply: one op into one replica's tree, serially —
// etcd's single apply thread. The key and value the tree keeps alias the
// entry: raft hands every replica the one immutable slice, and the tree
// never mutates either.
func apply(t *bptree.Tree, e consensus.Entry) system.Result {
	b := e.Data
	if len(b) < 5 || int(binary.BigEndian.Uint32(b[1:])) > len(b)-5 {
		return system.Result{Err: errors.New("etcd: undecodable op")}
	}
	end := 5 + int(binary.BigEndian.Uint32(b[1:]))
	key := b[5:end:end]
	if b[0] == 1 {
		_ = t.Delete(key)
	} else {
		_ = t.Put(key, b[end:])
	}
	return system.Result{Committed: true}
}

// dump is the group's Dump: the tree's records in key order.
func dump(t *bptree.Tree, emit func(key string, value []byte)) {
	it := t.NewIterator(nil)
	for it.Next() {
		emit(string(it.Key()), it.Value())
	}
}

// Put writes a key through consensus and waits for apply.
func (c *Cluster) Put(key string, value []byte) error { return c.replicate(false, key, value) }

// Delete removes a key through consensus.
func (c *Cluster) Delete(key string) error { return c.replicate(true, key, nil) }

func (c *Cluster) replicate(del bool, key string, value []byte) error {
	if key == "" {
		// etcd refuses it, and the group's checkpoint records keep it for
		// themselves (system.GroupConfig.Dump).
		return errors.New("etcd: key is not provided")
	}
	return c.Propose(encodeOp(del, key, value)).Err
}

// Get reads key from the freshest live replica; a missing key reads as
// nil, and a cluster with no live replica errors.
func (c *Cluster) Get(key string) ([]byte, error) {
	t, err := c.Freshest()
	if err != nil {
		return nil, err
	}
	v, err := t.Get([]byte(key))
	if errors.Is(err, storage.ErrNotFound) {
		return nil, nil
	}
	return v, err
}

// execute serves single-operation requests only, mirroring etcd's data
// model. Multi-op invocations are rejected the way the paper excludes
// etcd from transactional workloads.
func (c *Cluster) execute(t *txn.Tx) system.Result {
	if t.Invocation.Contract != contract.KVName {
		return system.Result{Err: fmt.Errorf("etcd: unsupported contract %q (no general transactions)", t.Invocation.Contract)}
	}
	inv := t.Invocation
	switch inv.Method {
	case "get":
		var v []byte
		var err error
		t.Trace.Time(metrics.PhaseStorage, func() {
			v, err = c.Get(string(inv.Args[0]))
		})
		return system.Result{Committed: err == nil, Value: v, Err: err}
	case "put", "modify":
		start := time.Now()
		err := c.Put(string(inv.Args[0]), inv.Args[1])
		t.Trace.Observe(metrics.PhaseCommit, time.Since(start))
		return system.Result{Committed: err == nil, Err: err}
	default:
		return system.Result{Err: fmt.Errorf("etcd: unsupported method %q", inv.Method)}
	}
}

// StateBytes returns one replica's resident state size.
func (c *Cluster) StateBytes() int64 { return c.State(0).ApproxSize() }

// Close implements system.System.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		c.Group.Close()
		c.net.Close()
	})
}
