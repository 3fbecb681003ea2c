// Package etcd models etcd v3.3, the paper's NoSQL representative: a
// single Raft group fully replicating a key-value store backed by a
// copy-on-write B+tree (BoltDB), with one consensus instance sequencing
// all requests and strictly serial application.
//
// Serial execution makes etcd immune to workload skew (Fig 9's flat line)
// but ties its throughput to the Raft group size (Table 4's decay), and
// its relaxed transactional surface (single-op requests; no general
// transactions) is why the Smallbank experiment excludes it.
package etcd

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/raft"
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
	// Link models the network; nil = zero latency.
	Link cluster.LinkModel
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	return c
}

// Cluster is a running etcd deployment.
type Cluster struct {
	system.Blocking
	cfg   Config
	net   *cluster.Network
	nodes []*node
	box   *system.PayloadBox
	repl  *system.Replicator

	closeOne sync.Once
}

var _ system.System = (*Cluster)(nil)

type node struct {
	id     cluster.NodeID
	c      *Cluster
	cons   *raft.Node
	tree   *bptree.Tree
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// op is the replicated request.
type op struct {
	reqID uint64
	del   bool
	key   string
	value []byte
}

// New assembles and starts a cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:  cfg,
		net:  cluster.NewNetwork(cfg.Link),
		box:  system.NewPayloadBox(),
		repl: system.NewReplicator("etcd: leaderless", "etcd: apply timeout"),
	}
	c.Blocking = system.NewBlocking(c.execute)
	peers := make([]cluster.NodeID, cfg.Nodes)
	for i := range peers {
		peers[i] = cluster.NodeID(i)
	}
	for _, id := range peers {
		n := &node{
			id:     id,
			c:      c,
			tree:   bptree.New(),
			stopCh: make(chan struct{}),
		}
		n.cons = raft.New(raft.Config{ID: id, Peers: peers, Endpoint: c.net.Register(id, 8192)})
		c.nodes = append(c.nodes, n)
	}
	for _, n := range c.nodes {
		n.wg.Add(1)
		go n.applyLoop()
	}
	return c
}

// Name implements system.System.
func (c *Cluster) Name() string { return "etcd" }

// applyLoop applies committed operations serially — etcd's single apply
// thread.
func (n *node) applyLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case e, ok := <-n.cons.Committed():
			if !ok {
				return
			}
			n.apply(e)
		}
	}
}

func (n *node) apply(e consensus.Entry) {
	id, ok := system.HandleID(e.Data)
	if !ok {
		return // no handle: raft's empty new-term entry, not an operation
	}
	v, ok := n.c.box.Take(id)
	if !ok {
		return
	}
	o := v.(*op)
	if o.del {
		_ = n.tree.Delete([]byte(o.key))
	} else {
		_ = n.tree.Put([]byte(o.key), o.value)
	}
	n.c.repl.Resolve(o.reqID, system.Result{Committed: true})
}

// Put writes a key through consensus and waits for apply.
func (c *Cluster) Put(key string, value []byte) error {
	return c.replicate(&op{key: key, value: value})
}

// Delete removes a key through consensus.
func (c *Cluster) Delete(key string) error {
	return c.replicate(&op{key: key, del: true})
}

func (c *Cluster) replicate(o *op) error {
	o.reqID = c.repl.NextID()
	id := c.box.Put(o, len(c.nodes))
	payload := system.EncodeHandle(id)
	// Proposed once, never again: the box hands the op to each node one
	// time, so a second log entry carrying the same handle could be
	// applied twice by one node and not at all by another.
	err := c.repl.Do(o.reqID, false, len(c.nodes), func(i int) bool {
		return c.nodes[i].cons.Propose(payload) == nil
	}).Err
	if err != nil {
		// Gave up with takes outstanding: release the op, or it leaks.
		c.box.Drop(id)
	}
	return err
}

// Get serves a linearizable read from the leader's tree (leader leases;
// elections are not exercised by the experiments).
func (c *Cluster) Get(key string) ([]byte, error) {
	n := c.leader()
	v, err := n.tree.Get([]byte(key))
	if errors.Is(err, storage.ErrNotFound) {
		return nil, nil
	}
	return v, err
}

func (c *Cluster) leader() *node {
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, n := range c.nodes {
			if n.cons.IsLeader() {
				return n
			}
		}
		if time.Now().After(deadline) {
			return c.nodes[0]
		}
		//lint:allow sleepyloop bounded wait for a leader during elections
		time.Sleep(time.Millisecond)
	}
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
		if err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true, Value: v}
	case "put", "modify":
		start := time.Now()
		err := c.Put(string(inv.Args[0]), inv.Args[1])
		t.Trace.Observe(metrics.PhaseCommit, time.Since(start))
		if err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true}
	default:
		return system.Result{Err: fmt.Errorf("etcd: unsupported method %q", inv.Method)}
	}
}

// StateBytes returns one replica's resident state size.
func (c *Cluster) StateBytes() int64 { return c.nodes[0].tree.ApproxSize() }

// Close implements system.System.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		for _, n := range c.nodes {
			close(n.stopCh)
		}
		for _, n := range c.nodes {
			n.cons.Stop()
			n.wg.Wait()
			n.tree.Close()
		}
		c.net.Close()
	})
}
