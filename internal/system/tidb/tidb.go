// Package tidb models TiDB v4.0, the paper's NewSQL database: stateless
// SQL servers over a TiKV-like storage layer of Raft-replicated regions,
// with a Placement Driver issuing timestamps, Percolator-style two-phase
// commit, and snapshot isolation.
//
// The layering reproduces the paper's Table 5 interplay: few SQL servers
// bottleneck on statement processing; many TiKV replicas inflate the
// consensus cost of every write. The Percolator primary-lock latch is the
// mechanism behind the skew collapse of Fig 9, and per-region 2PC fan-out
// is the operation-count cost of Fig 10. A commit costs three rounds of
// region consensus, whatever the number of regions it writes: every
// prewrite in one, the primary's commit record, then every secondary's in
// one (Txn.Commit).
//
// How one replica of one region boots, applies its log, checkpoints, dies
// and comes back is not TiDB's: each region is a system.Group over an MVCC
// store. This package supplies the command set the log carries (codec.go),
// its application to the store, and everything above — Percolator and the
// SQL front end.
package tidb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/contract"
	"dichotomy/internal/metrics"
	"dichotomy/internal/mvcc"
	"dichotomy/internal/occ"
	"dichotomy/internal/recovery"
	"dichotomy/internal/sharding"
	"dichotomy/internal/system"
	"dichotomy/internal/tso"
	"dichotomy/internal/txn"
)

// Config assembles a TiDB cluster.
type Config struct {
	// Servers is the number of stateless TiDB (SQL) servers.
	Servers int
	// StorageNodes is the number of TiKV nodes.
	StorageNodes int
	// Regions is the number of key-space shards. Default 16.
	Regions int
	// ReplicationFactor is replicas per region; 0 means full replication
	// (every storage node holds every region), the paper's default mode.
	ReplicationFactor int

	// DataDir, when set together with CheckpointInterval, enables
	// per-region-replica checkpoint chains under
	// DataDir/region-NNN/replica-N. A recovered replica restores its own
	// chain and has the raft leader re-replicate only the log above it.
	DataDir string
	// CheckpointInterval is how many applied raft entries between
	// checkpoints; 0 disables checkpointing (recovery then replays the
	// whole region log, which raft backfills anyway).
	CheckpointInterval uint64
	// CheckpointMode selects full or delta region checkpoints.
	CheckpointMode recovery.Mode
	// CheckpointFullEvery folds delta chains every N-th checkpoint.
	CheckpointFullEvery int
}

func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.StorageNodes <= 0 {
		c.StorageNodes = 3
	}
	if c.Regions <= 0 {
		c.Regions = 16
	}
	return c
}

// Cluster is a running TiDB deployment.
type Cluster struct {
	system.Blocking
	cfg  Config
	net  *cluster.Network
	pd   *tso.Oracle
	part sharding.Partitioner
	// regions are the Raft-replicated shards of the key space, each one
	// replicated group whose state machine is an MVCC store.
	regions []*system.Group[mvcc.Store]
	// gate models the SQL layer's aggregate processing capacity: each
	// stateless server contributes a fixed number of concurrent statement
	// slots. Few servers ⇒ statements queue here (Table 5's left column
	// bottleneck); many servers ⇒ the storage layer becomes the limit.
	gate chan struct{}

	// abort counters, read by the experiments.
	Aborts metrics.Counter
	WWConf metrics.Counter

	closeOne sync.Once
}

var _ system.System = (*Cluster)(nil)

// regionCmd is the replicated storage command. K is string where a
// transaction proposes one from its own keys, []byte where a replica
// decodes one, aliasing the log entry (codec.go).
type regionCmd[K string | []byte] struct {
	kind     cmdKind
	key      K
	value    []byte
	del      bool
	startTS  uint64
	commitTS uint64
	primary  K
}

type cmdKind uint8

const (
	cmdPrewrite cmdKind = iota
	cmdCommit
	cmdRollback
	// cmdRawPut applies a non-transactional write in one consensus round,
	// the raw KV surface TiKV exposes without the Percolator layer.
	cmdRawPut
)

// New assembles and starts a cluster.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:  cfg,
		net:  cluster.NewNetwork(cluster.ZeroLink{}),
		pd:   tso.New(),
		part: sharding.HashPartitioner{N: cfg.Regions},
		gate: make(chan struct{}, cfg.Servers*slotsPerServer),
	}
	c.Blocking = system.NewBlocking(c.execute)
	replicasPer := cfg.ReplicationFactor
	if replicasPer <= 0 || replicasPer > cfg.StorageNodes {
		replicasPer = cfg.StorageNodes // full replication
	}
	ckpt := recovery.Options{
		Interval:  cfg.CheckpointInterval,
		Mode:      cfg.CheckpointMode,
		FullEvery: cfg.CheckpointFullEvery,
	}
	for r := 0; r < cfg.Regions; r++ {
		peers := make([]cluster.NodeID, replicasPer)
		for i := range peers {
			// Spread region replicas across storage nodes round-robin;
			// node ids are namespaced per region to keep raft groups
			// independent on the shared network.
			node := (r + i) % cfg.StorageNodes
			peers[i] = cluster.NodeID(100000 + r*1000 + node)
		}
		c.regions = append(c.regions, system.NewGroup(system.GroupConfig[mvcc.Store]{
			Label:      fmt.Sprintf("tidb: region %d", r),
			Net:        c.net,
			Peers:      peers,
			DataDir:    cfg.DataDir,
			Name:       fmt.Sprintf("region-%03d", r),
			Checkpoint: ckpt,
			New:        mvcc.NewStore,
			Apply:      applyRegionCmd,
			Dump:       (*mvcc.Store).DumpEntries,
			Restore:    (*mvcc.Store).SetEntry,
			Leaderless: "tidb: region leaderless",
			Timeout:    "tidb: region apply timeout",
		}))
	}
	return c
}

// Name implements system.System.
func (c *Cluster) Name() string { return "tidb" }

// SetFaults installs (or, with nil, removes) a message-fault hook on the
// cluster's transport — the chaos layer's drop/delay/reorder seam.
func (c *Cluster) SetFaults(hook cluster.FaultHook) { c.net.SetFaults(hook) }

// Close implements system.System.
func (c *Cluster) Close() {
	c.closeOne.Do(func() {
		for _, reg := range c.regions {
			reg.Close()
		}
		c.net.Close()
	})
}

// regionOf routes a key.
func (c *Cluster) regionOf(key string) *system.Group[mvcc.Store] {
	return c.regions[c.part.Shard(key)]
}

// applyRegionCmd is the region group's Apply: one committed command into
// one replica's MVCC store. A body that does not decode applies nothing.
func applyRegionCmd(store *mvcc.Store, e consensus.Entry) system.Result {
	cmd, ok := decodeRegionCmd(e.Data)
	if !ok {
		return system.Result{Err: errors.New("tidb: undecodable region command")}
	}
	var err error
	switch cmd.kind {
	case cmdPrewrite:
		err = store.PrewriteBytes(cmd.key, cmd.value, cmd.del, cmd.startTS, cmd.primary)
	case cmdCommit:
		err = store.CommitBytes(cmd.key, cmd.startTS, cmd.commitTS)
	case cmdRollback:
		store.RollbackBytes(cmd.key, cmd.startTS)
	case cmdRawPut:
		if err = store.PrewriteBytes(cmd.key, cmd.value, cmd.del, cmd.startTS, cmd.key); err == nil {
			err = store.CommitBytes(cmd.key, cmd.startTS, cmd.commitTS)
		}
	}
	return system.Result{Committed: err == nil, Err: err}
}

// start offers a command to its key's region (system.Group.Start: exactly
// once) and returns the call that waits for its application outcome. The
// command is encoded into the log entry itself, so the replicated history
// is self-contained — the property region recovery replays against. The
// empty key never reaches a log: TiKV refuses it, and the region's
// checkpoint records leave it to the group (system.GroupConfig.Dump).
func (c *Cluster) start(cmd *regionCmd[string]) (system.Call, error) {
	if cmd.key == "" {
		return system.Call{}, errEmptyKey
	}
	return c.regionOf(cmd.key).Start(encodeRegionCmd(cmd)), nil
}

// propose is start, then the wait.
func (c *Cluster) propose(cmd *regionCmd[string]) error {
	call, err := c.start(cmd)
	if err != nil {
		return err
	}
	return call.Wait().Err
}

var errEmptyKey = errors.New("tidb: empty key")

// get reads key at snapshot ts from the freshest live replica of its
// region; a key with no version visible at ts reads as nil.
func (c *Cluster) get(key string, ts uint64) ([]byte, error) {
	store, err := c.regionOf(key).Freshest()
	if err != nil {
		return nil, err
	}
	v, err := store.Get(key, ts)
	if errors.Is(err, mvcc.ErrNotFound) {
		return nil, nil
	}
	return v, err
}

// --- the SQL/transaction front end ---

// Session is a client connection to one (stateless) SQL server. Sessions
// are cheap; the driver opens one per worker.
type Session struct {
	c *Cluster
}

// NewSession returns a session routed round-robin across SQL servers. The
// server count gates statement throughput via serverGate.
func (c *Cluster) NewSession() *Session { return &Session{c: c} }

// Exec parses, compiles, and runs a single autocommit statement.
func (s *Session) Exec(sql string, trace *metrics.Trace) (value []byte, err error) {
	stmt, plan, err := s.compile(sql, trace)
	if err != nil {
		return nil, err
	}
	switch stmt.Kind {
	case StmtSelect:
		var v []byte
		trace.Time(metrics.PhaseStorage, func() {
			v, err = s.c.read(plan.StorageKey)
		})
		return v, err
	case StmtInsert, StmtUpdate:
		t := s.c.NewTxn()
		t.Write(plan.StorageKey, []byte(stmt.Value))
		return nil, t.Commit(trace)
	case StmtDelete:
		t := s.c.NewTxn()
		t.Delete(plan.StorageKey)
		return nil, t.Commit(trace)
	}
	return nil, fmt.Errorf("tidb: unhandled statement kind %d", stmt.Kind)
}

// slotsPerServer is each SQL server's concurrent-statement capacity.
const slotsPerServer = 8

func (s *Session) compile(sql string, trace *metrics.Trace) (Stmt, Plan, error) {
	// Occupy a server slot for the statement's front-end processing.
	s.c.gate <- struct{}{}
	defer func() { <-s.c.gate }()
	var stmt Stmt
	var plan Plan
	var err error
	trace.Time(metrics.PhaseSQLParse, func() {
		stmt, err = Parse(sql)
	})
	if err != nil {
		return Stmt{}, Plan{}, err
	}
	trace.Time(metrics.PhaseSQLPlan, func() {
		plan, err = Compile(stmt)
	})
	return stmt, plan, err
}

// read performs a snapshot point read at a fresh timestamp.
func (c *Cluster) read(key string) ([]byte, error) {
	return c.get(key, c.pd.Next())
}

// Txn is an interactive optimistic transaction (snapshot isolation,
// Percolator commit).
//
// A transaction is one allocation. Its reads, its writes and the region
// calls its commit waits on are kept in slices that start out backed by
// arrays inside it, sized for the transactions this tree runs (a YCSB
// multi writes 4 keys; Smallbank reads and writes at most 3), and a key is
// found by scanning them — the contract.Stub rule. A larger transaction
// grows the slices.
type Txn struct {
	c       *Cluster
	startTS uint64
	reads   []txn.Write // the snapshot reads made: each key and the value read
	writes  []txn.Write // first-write order; writes[0] is the primary

	readBuf  [4]txn.Write
	writeBuf [4]txn.Write
	calls    [4]system.Call // one phase's fan-out (Commit)
}

// NewTxn begins a transaction at a fresh snapshot.
func (c *Cluster) NewTxn() *Txn {
	t := &Txn{c: c, startTS: c.pd.Next()}
	t.reads, t.writes = t.readBuf[:0], t.writeBuf[:0]
	return t
}

// keyIs matches the buffered read or write of key.
func keyIs(key string) func(txn.Write) bool { return func(w txn.Write) bool { return w.Key == key } }

// Get reads a key at the transaction's snapshot (read-your-writes).
func (t *Txn) Get(key string) ([]byte, error) {
	if i := slices.IndexFunc(t.writes, keyIs(key)); i >= 0 {
		return t.writes[i].Value, nil
	}
	if i := slices.IndexFunc(t.reads, keyIs(key)); i >= 0 {
		return t.reads[i].Value, nil
	}
	v, err := t.c.get(key, t.startTS)
	if err != nil {
		return nil, err
	}
	t.reads = append(t.reads, txn.Write{Key: key, Value: v})
	return v, nil
}

// Write buffers an upsert.
func (t *Txn) Write(key string, value []byte) {
	if i := slices.IndexFunc(t.writes, keyIs(key)); i >= 0 {
		t.writes[i].Value = value
		return
	}
	t.writes = append(t.writes, txn.Write{Key: key, Value: value})
}

// Delete buffers a deletion.
func (t *Txn) Delete(key string) { t.Write(key, nil) }

// Commit runs Percolator 2PC: prewrite everything, then commit the
// primary — the atomicity point — then the secondaries. Any prewrite
// failure rolls back and aborts; TiDB aborts instantly on conflict rather
// than waiting for locks.
//
// Each phase is one parallel round across the regions it touches: every
// command of the phase is offered before any is waited for, on this
// goroutine alone, so a phase costs the slowest region's raft round and
// not their sum. The secondaries commit after the decision, in one round,
// before the client is answered (TiDB commits them in parallel batches
// too): a failure there cannot undo the decision, and waiting for them
// keeps read-your-writes with no lock resolution on the read path.
func (t *Txn) Commit(trace *metrics.Trace) error {
	if len(t.writes) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { trace.Observe(metrics.PhaseCommit, time.Since(start)) }()

	if err := t.fanOut(cmdPrewrite, t.writes, 0); err != nil {
		// Roll back everything we may have locked and abort.
		_ = t.fanOut(cmdRollback, t.writes, 0)
		t.c.Aborts.Inc()
		if errors.Is(err, mvcc.ErrWriteConflict) || errors.Is(err, mvcc.ErrLocked) {
			t.c.WWConf.Inc()
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
		return err
	}

	// Commit point: the primary key's commit record decides the
	// transaction. This is the serialized latch of Fig 9.
	commitTS := t.c.pd.Next()
	primary := t.cmd(cmdCommit, t.writes[0], commitTS)
	if err := t.c.propose(&primary); err != nil {
		t.c.Aborts.Inc()
		return err
	}
	_ = t.fanOut(cmdCommit, t.writes[1:], commitTS)
	return nil
}

// cmd is the region command of kind for write w.
func (t *Txn) cmd(kind cmdKind, w txn.Write, commitTS uint64) regionCmd[string] {
	cmd := regionCmd[string]{kind: kind, key: w.Key, startTS: t.startTS, commitTS: commitTS}
	if kind == cmdPrewrite {
		cmd.value, cmd.del, cmd.primary = w.Value, w.Value == nil, t.writes[0].Key
	}
	return cmd
}

// fanOut starts the command of kind for every write, then waits for them
// all, and returns the first error: a refused start's, else the first in
// write order.
func (t *Txn) fanOut(kind cmdKind, writes []txn.Write, commitTS uint64) (err error) {
	calls := t.calls[:0]
	for _, w := range writes {
		cmd := t.cmd(kind, w, commitTS)
		call, refused := t.c.start(&cmd)
		if refused != nil {
			err = cmp.Or(err, refused)
			continue
		}
		calls = append(calls, call)
	}
	for _, call := range calls {
		err = cmp.Or(err, call.Wait().Err)
	}
	return err
}

// ErrConflict is the client-visible conflict abort.
var ErrConflict = errors.New("tidb: transaction conflict")

// --- system.System adapter ---

// execute translates the generic invocation into SQL statements, exactly
// as the YCSB/OLTPBench drivers do.
func (c *Cluster) execute(t *txn.Tx) system.Result {
	s := c.NewSession()
	inv := t.Invocation
	switch inv.Contract {
	case contract.KVName:
		return c.execKV(s, t)
	case contract.SmallbankName:
		return c.execSmallbank(s, t)
	default:
		return system.Result{Err: fmt.Errorf("tidb: no translation for contract %q", inv.Contract)}
	}
}

func (c *Cluster) execKV(s *Session, t *txn.Tx) system.Result {
	inv := t.Invocation
	switch inv.Method {
	case "get":
		v, err := s.Exec(bind("SELECT v FROM kv WHERE k = ?", inv.Args[0]), t.Trace)
		if err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true, Value: v}
	case "put", "modify":
		// A read-modify-write round, as the YCSB update profile does.
		_, plan, err := s.compile(bind("UPDATE kv SET v = ? WHERE k = ?", inv.Args[1], inv.Args[0]), t.Trace)
		if err != nil {
			return system.Result{Err: err}
		}
		tx := c.NewTxn()
		if inv.Method == "modify" {
			if _, err := tx.Get(plan.StorageKey); err != nil {
				return c.conflictResult(err)
			}
		}
		tx.Write(plan.StorageKey, inv.Args[1])
		if err := tx.Commit(t.Trace); err != nil {
			return c.conflictResult(err)
		}
		return system.Result{Committed: true}
	case "multi":
		tx := c.NewTxn()
		for i := 0; i < len(inv.Args); i += 2 {
			_, plan, err := s.compile(bind("UPDATE kv SET v = ? WHERE k = ?", inv.Args[i+1], inv.Args[i]), t.Trace)
			if err != nil {
				return system.Result{Err: err}
			}
			if _, err := tx.Get(plan.StorageKey); err != nil {
				return c.conflictResult(err)
			}
			tx.Write(plan.StorageKey, inv.Args[i+1])
		}
		if err := tx.Commit(t.Trace); err != nil {
			return c.conflictResult(err)
		}
		return system.Result{Committed: true}
	default:
		return system.Result{Err: fmt.Errorf("tidb: kv method %q", inv.Method)}
	}
}

func (c *Cluster) conflictResult(err error) system.Result {
	if errors.Is(err, ErrConflict) || errors.Is(err, mvcc.ErrLocked) || errors.Is(err, mvcc.ErrWriteConflict) {
		return system.Result{Reason: occ.WriteWriteConflict, Err: err}
	}
	return system.Result{Err: err}
}

// execSmallbank runs the Smallbank profiles as interactive transactions
// with client-side arithmetic, the OLTPBench style.
func (c *Cluster) execSmallbank(s *Session, t *txn.Tx) system.Result {
	inv := t.Invocation
	tx := c.NewTxn()
	get := func(table string, id []byte) (int64, error) {
		_, plan, err := s.compile(bind("SELECT v FROM "+table+" WHERE k = ?", id), t.Trace)
		if err != nil {
			return 0, err
		}
		v, err := tx.Get(plan.StorageKey)
		if err != nil {
			return 0, err
		}
		return contract.DecodeInt64(v), nil
	}
	put := func(table string, id []byte, v int64) error {
		_, plan, err := s.compile(bind("UPDATE "+table+" SET v = 'x' WHERE k = ?", id), t.Trace)
		if err != nil {
			return err
		}
		tx.Write(plan.StorageKey, contract.EncodeInt64(v))
		return nil
	}
	fail := func(err error) system.Result { return c.conflictResult(err) }

	switch inv.Method {
	case "create_account":
		if err := put("chk", inv.Args[0], contract.DecodeInt64(inv.Args[1])); err != nil {
			return fail(err)
		}
		if err := put("sav", inv.Args[0], contract.DecodeInt64(inv.Args[2])); err != nil {
			return fail(err)
		}
	case "transact_savings":
		bal, err := get("sav", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		amount := contract.DecodeInt64(inv.Args[1])
		if bal+amount < 0 {
			return system.Result{Reason: occ.OK, Err: contract.ErrAbort}
		}
		if err := put("sav", inv.Args[0], bal+amount); err != nil {
			return fail(err)
		}
	case "deposit_checking":
		bal, err := get("chk", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		if err := put("chk", inv.Args[0], bal+contract.DecodeInt64(inv.Args[1])); err != nil {
			return fail(err)
		}
	case "send_payment":
		src, err := get("chk", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		amount := contract.DecodeInt64(inv.Args[2])
		if src < amount {
			return system.Result{Reason: occ.OK, Err: contract.ErrAbort}
		}
		dst, err := get("chk", inv.Args[1])
		if err != nil {
			return fail(err)
		}
		if err := put("chk", inv.Args[0], src-amount); err != nil {
			return fail(err)
		}
		if err := put("chk", inv.Args[1], dst+amount); err != nil {
			return fail(err)
		}
	case "write_check":
		chk, err := get("chk", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		sav, err := get("sav", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		amount := contract.DecodeInt64(inv.Args[1])
		if chk+sav < amount {
			amount++
		}
		if err := put("chk", inv.Args[0], chk-amount); err != nil {
			return fail(err)
		}
	case "amalgamate":
		sav, err := get("sav", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		chk, err := get("chk", inv.Args[0])
		if err != nil {
			return fail(err)
		}
		dst, err := get("chk", inv.Args[1])
		if err != nil {
			return fail(err)
		}
		if err := put("sav", inv.Args[0], 0); err != nil {
			return fail(err)
		}
		if err := put("chk", inv.Args[0], 0); err != nil {
			return fail(err)
		}
		if err := put("chk", inv.Args[1], dst+sav+chk); err != nil {
			return fail(err)
		}
	case "query":
		if _, err := get("sav", inv.Args[0]); err != nil {
			return fail(err)
		}
		if _, err := get("chk", inv.Args[0]); err != nil {
			return fail(err)
		}
		return system.Result{Committed: true}
	default:
		return system.Result{Err: fmt.Errorf("tidb: smallbank method %q", inv.Method)}
	}
	if err := tx.Commit(t.Trace); err != nil {
		return c.conflictResult(err)
	}
	return system.Result{Committed: true}
}

// RawPut writes a key through the region raft group without transactional
// machinery — the standalone-TiKV data point of Fig 4. One consensus
// round, no locks, no 2PC: the overhead gap between this and a TiDB
// transaction is exactly the ACID cost the paper measures between TiKV
// and TiDB.
func (c *Cluster) RawPut(key string, value []byte) error {
	ts := c.pd.Next()
	return c.propose(&regionCmd[string]{
		kind: cmdRawPut, key: key, value: value,
		startTS: ts, commitTS: c.pd.Next(),
	})
}

// RawGet reads a key at the latest snapshot without SQL processing.
func (c *Cluster) RawGet(key string) ([]byte, error) {
	return c.read(key)
}

// StateBytes returns the live state footprint across regions of one full
// replica (Fig 12's TiDB series).
func (c *Cluster) StateBytes() int64 {
	var total int64
	for _, reg := range c.regions {
		if store, err := reg.Freshest(); err == nil {
			total += store.Bytes()
		}
	}
	return total
}
