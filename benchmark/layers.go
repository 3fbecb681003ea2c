package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/authstate"
	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/consensus/ibft"
	"dichotomy/internal/consensus/pbft"
	"dichotomy/internal/consensus/raft"
	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ingress"
	"dichotomy/internal/ledger"
	"dichotomy/internal/mvcc"
	"dichotomy/internal/occ"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/recovery"
	"dichotomy/internal/sharedlog"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/lsm"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/system"
	"dichotomy/internal/tso"
	"dichotomy/internal/twopc"
	"dichotomy/internal/txn"
	"dichotomy/internal/workload/ycsb"
)

// The fixed-work harness (H metrics). Every layer is timed through its
// public functions on N items taken from the workload's own transaction
// stream — the same generators, continued past what the phases consumed —
// simulated against a store holding the workload's preload and endorsed
// by four peers, in blocks of blockTxs. Each timing is the median of
// reps repetitions and is recorded as a real span. The harness runs
// after the system under test has been closed, so its allocation counts
// are its own.

const blockTxs = 100

// harness carries what every layer probe needs.
type harness struct {
	n, reps int
	spans   *spanLog
	m       map[string]metric
	scratch string

	peers []*cryptoutil.Signer
	// txs are the workload's transactions with RW-sets and endorsements;
	// kvTxs and sbTxs are KV and Smallbank samples for the two contract
	// probes (one of them is txs, the other comes from that contract's
	// default generator).
	txs, kvTxs, sbTxs []*txn.Tx
	// kv and sb hold the KV and Smallbank preloads; own is the one of
	// them the workload's transactions were simulated against.
	kv, sb, own *state.Store
	// blocks are txs in blocks of blockTxs.
	blocks [][]*txn.Tx
}

// probe times fn over items items, reps times; prep builds fresh inputs
// for each repetition outside the timed span. It returns the median
// nanoseconds and allocations per item.
func (h *harness) probe(name string, items int, prep func() func()) (ns, allocs float64) {
	var nsV, allocV []float64
	for r := 0; r < h.reps; r++ {
		run := prep()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := h.spans.timed("harness."+name, fmt.Sprintf("%s#%d", name, r), "", run)
		runtime.ReadMemStats(&after)
		nsV = append(nsV, float64(d.Nanoseconds())/float64(items))
		allocV = append(allocV, float64(after.Mallocs-before.Mallocs)/float64(items))
	}
	return median(nsV), median(allocV)
}

func (h *harness) set(name string, v float64, unit string) { h.m[name] = metric{v, unit} }

// once is prep for probes whose inputs survive repetition.
func once(fn func()) func() func() { return func() func() { return fn } }

// newStore is the in-memory LSM-backed store Fabric and Quorum run on.
func newStore() (*state.Store, error) {
	eng, err := lsm.Open(lsm.Options{})
	if err != nil {
		return nil, err
	}
	return state.New(eng, 0), nil
}

// loadStore executes the preload transactions against an empty store.
func loadStore(reg *contract.Registry, load []*txn.Tx) (*state.Store, error) {
	st, err := newStore()
	if err != nil {
		return nil, err
	}
	for i, t := range load {
		rw, err := reg.Execute(st, t.Invocation)
		if err != nil {
			return nil, fmt.Errorf("harness preload: %w", err)
		}
		blk := st.NewBlock()
		blk.StageAll(rw.Writes, txn.Version{BlockNum: 1, TxNum: uint32(i)})
		if err := blk.Commit(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// simulate fills RW-sets and endorsements the way a Fabric peer would:
// execute against a snapshot, then every peer signs the effect. A
// business-rule abort leaves the RW-set empty, as endorsement does.
func (h *harness) simulate(reg *contract.Registry, st *state.Store, txs []*txn.Tx) error {
	for _, t := range txs {
		snap := st.Snapshot()
		rw, err := reg.Execute(snap, t.Invocation)
		snap.Release()
		if err == nil {
			t.RWSet = rw
		}
		for _, p := range h.peers {
			if err := t.Endorse(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func takeN(src txSource, n int) ([]*txn.Tx, error) {
	out := make([]*txn.Tx, n)
	for i := range out {
		t, err := src.Next()
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// newHarness prepares the samples.
func newHarness(w workload, b *built, p params, spans *spanLog, m map[string]metric) (*harness, error) {
	h := &harness{n: p.harnessN, reps: p.harnessReps, spans: spans, m: m, scratch: p.scratch}
	for i := 0; i < 4; i++ {
		s, err := cryptoutil.NewSigner(fmt.Sprintf("peer%d", i))
		if err != nil {
			return nil, err
		}
		h.peers = append(h.peers, s)
	}
	loader, err := cryptoutil.NewSigner("loader")
	if err != nil {
		return nil, err
	}
	reg := contract.NewRegistry(contract.KV{}, contract.Smallbank{})
	kvLoad, err := ycsbPreload(fabricRecords)(loader)
	if err != nil {
		return nil, err
	}
	sbLoad, err := smallbankConfig.LoadTxs(loader)
	if err != nil {
		return nil, err
	}
	own, err := w.preload(loader)
	if err != nil {
		return nil, err
	}
	h.txs = make([]*txn.Tx, h.n)
	for i := range h.txs {
		if h.txs[i], err = b.pool.take(); err != nil {
			return nil, err
		}
	}
	if h.txs[0].Invocation.Contract == contract.KVName {
		kvLoad, h.kvTxs = own, h.txs
		h.sbTxs, err = takeN(smallbankSource(smallbankConfig)(1, b.clients[0]), h.n)
	} else {
		sbLoad, h.sbTxs = own, h.txs
		h.kvTxs, err = takeN(ycsbSource(ycsb.Config{Records: fabricRecords, RecordSize: ycsbRecordSize})(1, b.clients[0]), h.n)
	}
	if err != nil {
		return nil, err
	}
	if h.kv, err = loadStore(reg, kvLoad); err != nil {
		return nil, err
	}
	if h.sb, err = loadStore(reg, sbLoad); err != nil {
		return nil, err
	}
	h.own = h.kv
	if h.txs[0].Invocation.Contract != contract.KVName {
		h.own = h.sb
	}
	if err := h.simulate(reg, h.own, h.txs); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(h.txs); lo += blockTxs {
		h.blocks = append(h.blocks, h.txs[lo:min(lo+blockTxs, len(h.txs))])
	}
	return h, nil
}

// writes lists every write of the sample (its reads, for a read-only
// transaction), so the storage probes always have work.
func (h *harness) writes() []storage.Write {
	var out []storage.Write
	for _, t := range h.txs {
		for _, w := range t.RWSet.Writes {
			out = append(out, storage.Write{Key: []byte(w.Key), Value: w.Value})
		}
		if len(t.RWSet.Writes) == 0 {
			for _, r := range t.RWSet.Reads {
				out = append(out, storage.Write{Key: []byte(r.Key), Value: []byte("v")})
			}
		}
	}
	return out
}

// run fills every H metric.
func (h *harness) run() error {
	steps := []func() error{
		h.txnLayer, h.cryptoLayer, h.contractLayer, h.ingressLayer, h.clusterLayer,
		h.consensusLayers, h.sharedlogLayer, h.validateLayers, h.stateLayer, h.ledgerLayer,
		h.trieLayers, h.engineLayers, h.recoveryLayer, h.mvccLayers,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) txnLayer() error {
	var err error
	ns, _ := h.probe("txn.sign", h.n, once(func() {
		for _, t := range h.txs {
			if _, e := txn.Sign(h.peers[0], t.Invocation); e != nil {
				err = e
			}
		}
	}))
	h.set("txn.sign_ns", ns, "ns")
	raw := make([][]byte, len(h.txs))
	ns, allocs := h.probe("txn.marshal", h.n, once(func() {
		for i, t := range h.txs {
			raw[i] = t.Marshal()
		}
	}))
	h.set("txn.marshal_ns", ns, "ns")
	h.set("txn.marshal_allocs", allocs, "count")
	total := 0
	for _, b := range raw {
		total += len(b)
	}
	h.set("txn.bytes_per_tx", float64(total)/float64(h.n), "B")
	ns, allocs = h.probe("txn.unmarshal", h.n, once(func() {
		for _, b := range raw {
			if _, e := txn.Unmarshal(b); e != nil {
				err = e
			}
		}
	}))
	h.set("txn.unmarshal_ns", ns, "ns")
	h.set("txn.unmarshal_allocs", allocs, "count")
	return err
}

func (h *harness) cryptoLayer() error {
	keys := map[string]cryptoutil.PublicKey{}
	for _, p := range h.peers {
		keys[p.Name()] = p.Public()
	}
	var checks []cryptoutil.Check
	for _, t := range h.txs {
		d := t.EndorsementDigest()
		for _, e := range t.Endorsements {
			if len(checks) < h.n {
				checks = append(checks, cryptoutil.Check{Pub: keys[e.Peer], Digest: d, Sig: e.Sig})
			}
		}
	}
	var err error
	ns, _ := h.probe("cryptoutil.verify_serial", len(checks), once(func() {
		for _, c := range checks {
			if e := cryptoutil.VerifyDigest(c.Pub, c.Digest, c.Sig); e != nil {
				err = e
			}
		}
	}))
	h.set("cryptoutil.verify_serial_ns_per_sig", ns, "ns")
	// A block's worth of endorsements per pass, against a cold cache.
	ns, _ = h.probe("cryptoutil.verify_batch", len(checks), func() func() {
		cryptoutil.ResetSigCache()
		return func() {
			for lo := 0; lo < len(checks); lo += blockTxs {
				if e := cryptoutil.VerifyBatch(checks[lo:min(lo+blockTxs, len(checks))]); e != nil {
					err = e
				}
			}
		}
	})
	h.set("cryptoutil.verify_batch_ns_per_sig", ns, "ns")
	// The batch passes above left every check in the cache.
	ns, _ = h.probe("cryptoutil.verify_cached", len(checks), once(func() {
		for _, c := range checks {
			if e := cryptoutil.VerifyDigestCached(c.Pub, c.Digest, c.Sig); e != nil {
				err = e
			}
		}
	}))
	h.set("cryptoutil.verify_cached_ns_per_sig", ns, "ns")
	cryptoutil.ResetSigCache()
	return err
}

func (h *harness) contractLayer() error {
	reg := contract.NewRegistry(contract.KV{}, contract.Smallbank{})
	exec := func(name string, st *state.Store, txs []*txn.Tx) float64 {
		ns, _ := h.probe(name, len(txs), once(func() {
			snap := st.Snapshot()
			defer snap.Release()
			for _, t := range txs {
				// Business-rule aborts are outcomes here, not errors.
				_, _ = reg.Execute(snap, t.Invocation)
			}
		}))
		return ns
	}
	h.set("contract.kv_exec_ns", exec("contract.kv_exec", h.kv, h.kvTxs), "ns")
	h.set("contract.smallbank_exec_ns", exec("contract.smallbank_exec", h.sb, h.sbTxs), "ns")
	return nil
}

// ingressLayer drives the front door alone: the sink resolves every
// transaction at once, so submit→resolve is the door's own cost.
func (h *harness) ingressLayer() error {
	var in *ingress.Ingress
	in, err := ingress.New(ingress.Config{}, func(txs []*txn.Tx) error {
		for _, t := range txs {
			in.Resolve(t.ID, system.Result{Committed: true})
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer in.Close()
	ns, allocs := h.probe("ingress.submit_resolve", h.n, once(func() {
		handles := make([]*system.Handle, 0, len(h.txs))
		for _, t := range h.txs {
			hd, e := in.Submit(context.Background(), t)
			if e != nil {
				err = e
				continue
			}
			handles = append(handles, hd)
		}
		for _, hd := range handles {
			hd.Wait(context.Background())
		}
	}))
	h.set("ingress.submit_resolve_ns", ns, "ns")
	h.set("ingress.allocs_per_tx", allocs, "count")
	return err
}

// ping is the smallest message the simulated network carries.
type ping struct{}

func (ping) Size() int { return 8 }

func (h *harness) clusterLayer() error {
	net := cluster.NewNetwork(cluster.ZeroLink{})
	defer net.Close()
	a, b := net.Register(1, 0), net.Register(2, 0)
	var err error
	ns, _ := h.probe("cluster.send_deliver", h.n, once(func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < h.n; i++ {
				<-b.Inbox()
			}
		}()
		for i := 0; i < h.n; i++ {
			for a.Send(2, ping{}) != nil {
				runtime.Gosched() // outbox full: the receiver is behind
			}
		}
		<-done
	}))
	h.set("cluster.send_deliver_ns", ns, "ns")
	return err
}

// group is a consensus group on its own in-memory network.
type group struct {
	net    *cluster.Network
	nodes  []consensus.Node
	leader consensus.Node
	// delivered receives one token per entry a node delivers.
	delivered chan struct{}
	wg        sync.WaitGroup
}

// payloadSeq makes every proposed payload distinct: PBFT and IBFT drop a
// payload whose digest they have already sequenced.
var payloadSeq atomic.Uint64

type nodeMaker func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node

func newGroup(size int, mk nodeMaker) (*group, error) {
	g := &group{net: cluster.NewNetwork(cluster.ZeroLink{}), delivered: make(chan struct{}, 1<<16)}
	peers := make([]cluster.NodeID, size)
	for i := range peers {
		peers[i] = cluster.NodeID(i + 1)
	}
	for _, id := range peers {
		g.nodes = append(g.nodes, mk(id, peers, g.net.Register(id, 0)))
	}
	for _, n := range g.nodes {
		g.wg.Add(1)
		go func(n consensus.Node) {
			defer g.wg.Done()
			for range n.Committed() {
				g.delivered <- struct{}{}
			}
		}(n)
	}
	elected := waitUntil(10*time.Second, func() bool {
		for _, n := range g.nodes {
			if n.IsLeader() {
				g.leader = n
				return true
			}
		}
		return false
	})
	if !elected {
		g.stop()
		return nil, fmt.Errorf("harness: no leader elected")
	}
	return g, nil
}

func (g *group) stop() {
	for _, n := range g.nodes {
		n.Stop()
	}
	g.wg.Wait()
	g.net.Close()
}

// order proposes n 8-byte entries (the handle size the systems order)
// with at most window outstanding, each counted once every node has
// delivered it, and returns how many completed within the budget.
func (g *group) order(n, window int, budget time.Duration) int {
	deadline := time.After(budget)
	sent, tokens := 0, 0
	for tokens < n*len(g.nodes) {
		for sent < n && sent-tokens/len(g.nodes) < window {
			if g.leader.Propose(system.EncodeHandle(payloadSeq.Add(1))) != nil {
				return tokens / len(g.nodes)
			}
			sent++
		}
		select {
		case <-g.delivered:
			tokens++
		case <-deadline:
			return tokens / len(g.nodes)
		}
	}
	return n
}

// consensusLayers times a round of each protocol on its own group: a
// fresh group per repetition, n entries, nanoseconds per entry delivered
// on every node. Raft and PBFT pipeline 256 entries; IBFT decides one
// height at a time and drops messages of a height it has not reached, so
// it is driven in lock-step. A repetition that stalls is retried on a
// fresh group (README, Findings) and counted in consensus.harness_stalls;
// it never fails the run.
func (h *harness) consensusLayers() error {
	kinds := []struct {
		name   string
		size   int
		window int
		mk     nodeMaker
	}{
		{"raft", 3, 256, func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node {
			return raft.New(raft.Config{ID: id, Peers: peers, Endpoint: ep})
		}},
		{"pbft", 4, 256, func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node {
			return pbft.New(pbft.Config{ID: id, Peers: peers, Endpoint: ep})
		}},
		{"ibft", 4, 1, func(id cluster.NodeID, peers []cluster.NodeID, ep *cluster.Endpoint) consensus.Node {
			return ibft.New(ibft.Config{ID: id, Peers: peers, Endpoint: ep})
		}},
	}
	stalls := 0
	for _, k := range kinds {
		var nsV, allocV []float64
		for r := 0; r < h.reps; r++ {
			for attempt := 0; attempt < 3; attempt++ {
				g, err := newGroup(k.size, k.mk)
				if err != nil {
					return fmt.Errorf("%s: %w", k.name, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				done := 0
				d := h.spans.timed("harness."+k.name+".round", fmt.Sprintf("%s.round#%d.%d", k.name, r, attempt), "", func() {
					done = g.order(h.n, k.window, 2*time.Second)
				})
				runtime.ReadMemStats(&after)
				g.stop()
				if done < h.n {
					stalls++
					if attempt < 2 {
						continue
					}
				}
				nsV = append(nsV, float64(d.Nanoseconds())/float64(max(done, 1)))
				allocV = append(allocV, float64(after.Mallocs-before.Mallocs)/float64(max(done, 1)))
				break
			}
		}
		h.set(k.name+".round_ns_per_entry", median(nsV), "ns")
		if k.name == "raft" {
			h.set("raft.allocs_per_entry", median(allocV), "count")
		}
	}
	h.set("consensus.harness_stalls", float64(stalls), "count")
	return nil
}

func (h *harness) sharedlogLayer() error {
	net := cluster.NewNetwork(cluster.ZeroLink{})
	defer net.Close()
	svc := sharedlog.New(sharedlog.Config{Net: net, NodeBase: 1, Orderers: 3, BatchSize: blockTxs})
	defer svc.Stop()
	cons := svc.Subscribe(1)
	defer cons.Close()
	var err error
	record := system.EncodeHandle(1)
	ns, _ := h.probe("sharedlog.append", h.n, once(func() {
		for i := 0; i < h.n; i++ {
			if e := svc.Append(record); e != nil {
				err = e
				return
			}
		}
		for got := 0; got < h.n; {
			select {
			case b := <-cons.Batches():
				got += len(b.Records)
			case <-time.After(10 * time.Second):
				err = fmt.Errorf("harness: shared log stalled at %d of %d records", got, h.n)
				return
			}
		}
	}))
	h.set("sharedlog.append_ns_per_record", ns, "ns")
	h.set("sharedlog.avg_batch_records", float64(svc.Appended())/float64(max(svc.Batches(), 1)), "count")
	return err
}

// validateLayers times MVCC validation of the sample's blocks against
// the store they were simulated on.
func (h *harness) validateLayers() error {
	st := h.own
	sets := make([][]txn.RWSet, len(h.blocks))
	waves := 0
	for i, blk := range h.blocks {
		for _, t := range blk {
			sets[i] = append(sets[i], t.RWSet)
		}
		waves += len(pipeline.Waves(sets[i]))
	}
	ns, allocs := h.probe("pipeline.validate_waves", h.n, once(func() {
		for i, s := range sets {
			pipeline.ValidateWaves(s, st, uint64(i+2), 1)
		}
	}))
	h.set("pipeline.validate_waves_ns_per_tx", ns, "ns")
	h.set("pipeline.validate_allocs_per_tx", allocs, "count")
	h.set("pipeline.waves_per_block", float64(waves)/float64(len(h.blocks)), "count")
	ns, _ = h.probe("occ.validate_block", h.n, once(func() {
		for i, s := range sets {
			occ.ValidateBlock(s, st, uint64(i+2))
		}
	}))
	h.set("occ.validate_block_ns_per_tx", ns, "ns")
	return nil
}

// applyBlocks commits the sample's write sets block by block.
func (h *harness) applyBlocks(st *state.Store, after func(height uint64)) error {
	for i, blk := range h.blocks {
		b := st.NewBlock()
		for j, t := range blk {
			b.StageAll(t.RWSet.Writes, txn.Version{BlockNum: uint64(i + 2), TxNum: uint32(j)})
		}
		if err := b.Commit(); err != nil {
			return err
		}
		if after != nil {
			after(uint64(i + 2))
		}
	}
	return nil
}

func (h *harness) stateLayer() error {
	var err error
	ns, allocs := h.probe("state.apply_block", h.n, func() func() {
		st, e := newStore()
		if e != nil {
			err = e
			return func() {}
		}
		return func() {
			if e := h.applyBlocks(st, nil); e != nil {
				err = e
			}
			_ = st.Close() // in-memory engine
		}
	})
	h.set("state.apply_block_ns_per_tx", ns, "ns")
	h.set("state.apply_allocs_per_tx", allocs, "count")
	st := h.own
	keys := h.writes()
	ns, _ = h.probe("state.get", len(keys), once(func() {
		for _, w := range keys {
			// Absent keys are part of the cost being measured.
			_, _, _ = st.Get(string(w.Key))
		}
	}))
	h.set("state.get_ns", ns, "ns")
	ns, _ = h.probe("state.snapshot", h.n, once(func() {
		for i := 0; i < h.n; i++ {
			st.Snapshot().Release()
		}
	}))
	h.set("state.snapshot_ns", ns, "ns")
	return err
}

// sealBlocks appends the sample to a fresh ledger as the seal stages do:
// marshal, transaction root, append.
func (h *harness) sealBlocks() (*ledger.Ledger, error) {
	l := ledger.New()
	for _, blk := range h.blocks {
		payloads := make([][]byte, len(blk))
		for i, t := range blk {
			payloads[i] = t.Marshal()
		}
		var parent cryptoutil.Hash
		if head := l.Head(); head != nil {
			parent = head.Hash()
		}
		err := l.Append(&ledger.Block{
			Header: ledger.Header{Number: l.Height() + 1, ParentHash: parent, TxRoot: ledger.ComputeTxRoot(payloads)},
			Txs:    payloads,
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (h *harness) ledgerLayer() error {
	var err error
	var l *ledger.Ledger
	ns, allocs := h.probe("ledger.append", h.n, once(func() {
		if l, err = h.sealBlocks(); err != nil {
			return
		}
	}))
	if err != nil {
		return err
	}
	h.set("ledger.append_ns_per_tx", ns, "ns")
	h.set("ledger.append_allocs_per_tx", allocs, "count")
	h.set("ledger.bytes_per_tx", float64(l.StorageSize())/float64(h.n), "B")
	return nil
}

func (h *harness) trieLayers() error {
	writes := h.writes()
	ns, allocs := h.probe("mpt.update", len(writes), func() func() {
		trie := mpt.New()
		return func() {
			for i, w := range writes {
				trie.Put(w.Key, w.Value)
				if i%blockTxs == blockTxs-1 {
					trie.RootHash() // one root per block, as the maintainer publishes
				}
			}
			trie.RootHash()
		}
	})
	h.set("mpt.update_ns_per_key", ns, "ns")
	h.set("mpt.update_allocs_per_key", allocs, "count")
	trie := mpt.New()
	for _, w := range writes {
		trie.Put(w.Key, w.Value)
	}
	trie.RootHash()
	ns, _ = h.probe("mpt.prove", len(writes), once(func() {
		for _, w := range writes {
			trie.Prove(w.Key)
		}
	}))
	h.set("mpt.prove_ns", ns, "ns")

	m, err := authstate.New(authstate.Config{Signer: h.peers[0]})
	if err != nil {
		return err
	}
	defer m.Close()
	// The proof server learns roots by subscription, so it exists first.
	ps := authstate.NewProofServer(m, 2*len(writes))
	delta := make([]state.VersionedWrite, len(writes))
	for i, w := range writes {
		delta[i] = state.VersionedWrite{Write: txn.Write{Key: string(w.Key), Value: w.Value}, Version: txn.Version{BlockNum: 1}}
	}
	if err := m.Submit(1, delta); err != nil {
		return err
	}
	if _, err := m.WaitFor(1, 30*time.Second); err != nil {
		return err
	}
	serve := func() {
		for _, w := range writes {
			if _, e := ps.VerifiedGet(string(w.Key)); e != nil {
				err = e
			}
		}
	}
	ns, _ = h.probe("authstate.proof_cold", len(writes), func() func() { ps.ResetCache(); return serve })
	h.set("authstate.proof_cold_ns", ns, "ns")
	ns, _ = h.probe("authstate.proof_warm", len(writes), once(serve))
	h.set("authstate.proof_warm_ns", ns, "ns")
	return err
}

func (h *harness) engineLayers() error {
	writes := h.writes()
	put := func(e storage.Batch) error {
		for lo := 0; lo < len(writes); lo += blockTxs {
			if err := e.ApplyBatch(writes[lo:min(lo+blockTxs, len(writes))]); err != nil {
				return err
			}
		}
		return nil
	}
	dir, err := os.MkdirTemp(h.scratch, "harness-lsm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var disk *lsm.DB
	rep := 0
	ns, _ := h.probe("lsm.batch_put", len(writes), func() func() {
		if disk != nil {
			_ = disk.Close() // superseded by the next repetition's engine
		}
		rep++
		disk, err = lsm.Open(lsm.Options{Dir: filepath.Join(dir, fmt.Sprint(rep))})
		if err != nil {
			return func() {}
		}
		return func() {
			if e := put(disk); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	h.set("lsm.batch_put_ns_per_key", ns, "ns")
	ns, _ = h.probe("lsm.get", len(writes), once(func() {
		for _, w := range writes {
			if _, e := disk.Get(w.Key); e != nil {
				err = e
			}
		}
	}))
	h.set("lsm.get_ns", ns, "ns")
	if cerr := disk.Close(); err == nil {
		err = cerr
	}
	ns, _ = h.probe("memdb.batch_put", len(writes), func() func() {
		db := memdb.New()
		return func() {
			if e := put(db); e != nil {
				err = e
			}
		}
	})
	h.set("memdb.batch_put_ns_per_key", ns, "ns")
	return err
}

// recoveryLayer times checkpoint write, the delta checkpointer's
// commit-path pause, restore, and ledger replay on the sample.
func (h *harness) recoveryLayer() error {
	dir, err := os.MkdirTemp(h.scratch, "harness-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st := h.own
	keys := st.Len()
	ns, _ := h.probe("recovery.ckpt_write", keys, once(func() {
		if _, e := recovery.WriteCheckpoint(filepath.Join(dir, "full"), 1, st); e != nil {
			err = e
		}
	}))
	h.set("recovery.ckpt_write_ns_per_key", ns, "ns")
	restoreNs, _ := h.probe("recovery.restore", 1, func() func() {
		fresh, e := newStore()
		if e != nil {
			err = e
			return func() {}
		}
		return func() {
			if _, _, e := recovery.Restore(fresh, filepath.Join(dir, "full"), 0); e != nil {
				err = e
			}
			_ = fresh.Close() // in-memory engine
		}
	})
	h.set("recovery.restore_ms", restoreNs/1e6, "ms")
	if err != nil {
		return err
	}

	// Delta checkpoints every 16 blocks while the sample commits: the
	// pause is what stays on the commit path.
	live, err := newStore()
	if err != nil {
		return err
	}
	ck, err := recovery.NewCheckpointer(live, recovery.Options{
		Dir: filepath.Join(dir, "delta"), Interval: 16, Mode: recovery.ModeDelta,
	})
	if err != nil {
		return err
	}
	// One checkpoint a cycle: repeat the sample's blocks until enough
	// checkpoints have been taken to average over.
	height := uint64(1)
	var ckErr error
	for ckpts := 0; ckpts < 8 && ckErr == nil; {
		err = h.applyBlocks(live, func(uint64) {
			height++
			if took, e := ck.MaybeCheckpoint(height); e != nil {
				ckErr = e
			} else if took {
				ckpts++
			}
		})
		if err != nil {
			return err
		}
	}
	if ckErr != nil {
		return ckErr
	}
	ck.Flush()
	count, _, bytes := ck.Totals()
	_, pause := ck.PauseNs()
	ck.Close()
	_ = live.Close() // in-memory engine
	h.set("recovery.ckpt_pause_us", float64(pause)/1e3/float64(max(count, 1)), "us")
	h.set("recovery.ckpt_bytes_per_block", float64(bytes)/float64(height-1), "B")

	// Replay: decode each block, validate it and apply it, as a
	// recovering peer does with a healthy peer's ledger.
	src, err := h.sealBlocks()
	if err != nil {
		return err
	}
	ns, _ = h.probe("recovery.replay", len(h.blocks), func() func() {
		fresh, e := newStore()
		if e != nil {
			err = e
			return func() {}
		}
		return func() {
			_, e := recovery.Replay(recovery.LedgerSource{L: src}, 0, func(n uint64, payloads [][]byte) error {
				txs, e := recovery.DecodeTxs(payloads)
				if e != nil {
					return e
				}
				sets := make([]txn.RWSet, len(txs))
				for i, t := range txs {
					sets[i] = t.RWSet
				}
				verdicts := pipeline.ValidateWaves(sets, fresh, n, 1)
				blk := fresh.NewBlock()
				for i, t := range txs {
					if verdicts[i] == occ.OK {
						blk.StageAll(t.RWSet.Writes, txn.Version{BlockNum: n, TxNum: uint32(i)})
					}
				}
				return blk.Commit()
			})
			if e != nil {
				err = e
			}
			_ = fresh.Close() // in-memory engine
		}
	})
	h.set("recovery.replay_ms_per_block", ns/1e6, "ms")
	return err
}

// voter is a 2PC participant that always votes commit.
type voter struct{}

func (voter) Prepare(string) (twopc.Vote, error) { return twopc.VoteCommit, nil }
func (voter) Commit(string) error                { return nil }
func (voter) Abort(string) error                 { return nil }

func (h *harness) mvccLayers() error {
	writes := h.writes()
	var err error
	var store *mvcc.Store
	oracle := tso.New()
	ns, _ := h.probe("mvcc.prewrite_commit", len(writes), func() func() {
		store = mvcc.NewStore()
		return func() {
			for _, w := range writes {
				k := string(w.Key)
				start := oracle.Next()
				if e := store.Prewrite(k, w.Value, false, start, k); e != nil {
					err = e
					continue
				}
				if e := store.Commit(k, start, oracle.Next()); e != nil {
					err = e
				}
			}
		}
	})
	h.set("mvcc.prewrite_commit_ns_per_key", ns, "ns")
	ns, _ = h.probe("mvcc.get", len(writes), once(func() {
		ts := oracle.Next()
		for _, w := range writes {
			if _, e := store.Get(string(w.Key), ts); e != nil {
				err = e
			}
		}
	}))
	h.set("mvcc.get_ns", ns, "ns")
	ns, _ = h.probe("tso.next", h.n, once(func() {
		for i := 0; i < h.n; i++ {
			oracle.Next()
		}
	}))
	h.set("tso.next_ns", ns, "ns")
	coord := twopc.NewCoordinator()
	parts := []twopc.Participant{voter{}, voter{}, voter{}, voter{}}
	ns, _ = h.probe("twopc.run", h.n, once(func() {
		for i := 0; i < h.n; i++ {
			if e := coord.Run(fmt.Sprintf("tx%d", i), parts); e != nil {
				err = e
			}
		}
	}))
	h.set("twopc.run_ns", ns, "ns")
	return err
}
