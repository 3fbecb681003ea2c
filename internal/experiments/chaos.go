package experiments

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"dichotomy/internal/bench"
	"dichotomy/internal/chaos"
	"dichotomy/internal/cluster"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/ingress"
	"dichotomy/internal/recovery"
	"dichotomy/internal/state"
	"dichotomy/internal/storage"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/system/spanner"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/txn"
	"dichotomy/internal/workload/ycsb"
)

// ChaosAxes are Chaos's sweep axes.
type ChaosAxes struct {
	Faults []string
	Rates  []float64
}

// Chaos sweeps fault type × rate × system with seeded fault injection
// (internal/chaos) under continuous open-loop load, then verifies zero
// post-fault state divergence across every replica. The fault types:
//
//   - crash: a deterministic chaos.Schedule of crash/recover events runs
//     concurrently with the load — whole ledger nodes for Fabric, Quorum,
//     Veritas, and BigchainDB (live block-sync rejoin, no quiesce), one
//     replica of every region/shard for TiDB and Spanner (raft catch-up
//     on the replica's checkpoint chain). rate scales the event count;
//     the recover column is the mean wall-clock recovery time.
//   - net: every transport message is dropped or delayed with
//     probability rate. The raft groups heal by heartbeat retransmission
//     and PBFT by view change, so commits slow down but never diverge.
//   - engine: storage mutations fail or stall with probability rate on
//     one victim Fabric/Quorum node (the engine-hook seam). The victim's
//     store accumulates state holes while the healthy majority stays a
//     valid block-sync source, so these rows run without checkpointing
//     (a checkpoint would persist the holes) and heal by
//     crash/recovering the victim from a healthy peer after the run —
//     full ledger replay re-executes the canonical block stream onto a
//     fresh engine — before the divergence check.
//   - skew: the ingress watchdog's commit timeout is multiplied by a
//     clock-skew factor uniform in [rate, 1.0] (Fabric, Quorum, Veritas
//     behind the front door). Spurious timeouts are client-visible
//     errors only; replicas must still converge.
//
// Load runs with the harness's client-side retry enabled, so the row
// separates commits, aborts, errors, sheds that exhausted the retry
// budget, and retries that rescued a shed. inject totals every fault the
// injector (plus the crash schedule) actually landed. Equal seeds give
// equal fault schedules and draw streams.
func Chaos(sc Scale, ax ChaosAxes) []Table {
	t := Table{Title: "Chaos: fault type × rate × system under open-loop load",
		Cols: []string{"system", "fault", "rate", "tps", "commit", "abort", "err", "shed",
			"retry", "inject", "recover", "verified"}}
	cfg := ycsb.Config{Records: min(sc.Records, 256), RecordSize: 100, Theta: 0.6}
	for _, fault := range ax.Faults {
		for _, rate := range ax.Rates {
			systems, wire := chaosWiring(fault)
			for _, newSys := range systems {
				chaosRow(&t, sc, cfg, fault, rate, newSys, wire)
			}
		}
	}
	return []Table{t}
}

// chaosTarget is one system wired for a chaos row.
type chaosTarget struct {
	sys       system.System
	setFaults func(cluster.FaultHook) // transport seam (net rows)
	crash     func()                  // fail-stop the designated victims
	recover   func() error            // bring them back into live service
	repair    func() error            // post-run heal before verify (engine rows)
	verify    func() string           // quiesce + divergence check
}

// chaosBuild selects the seams a fault type needs wired at construction.
type chaosBuild struct {
	dir    string // non-empty: durable state with delta checkpoint chains
	engine func(storage.Engine) storage.Engine
	door   *ingress.Config
	repair bool // heal by crash/recovering every node post-run
}

// chaosSystem builds one system with the seams b selects.
type chaosSystem func(sc Scale, b chaosBuild) (*chaosTarget, error)

var (
	chaosLedgers = []chaosSystem{chaosFabric, chaosQuorum, chaosVeritas}
	chaosStores  = []chaosSystem{chaosBigchain, chaosTiDB, chaosSpanner}
)

// chaosWiring returns the systems a fault type runs on, and the seams it
// wires into each from the row's injector and data directory.
func chaosWiring(fault string) ([]chaosSystem, func(*chaos.Injector, string) chaosBuild) {
	switch fault {
	case "crash":
		return slices.Concat(chaosLedgers, chaosStores),
			func(_ *chaos.Injector, dir string) chaosBuild { return chaosBuild{dir: dir} }
	case "net":
		return slices.Concat(chaosLedgers, chaosStores),
			func(*chaos.Injector, string) chaosBuild { return chaosBuild{} }
	case "engine":
		// Only the two blockchains expose the engine-hook seam; no
		// checkpoints, or the chain would persist write-fault holes below
		// the checkpoint height and repair-by-replay could not reach them.
		// Exactly one node takes faults: if every store had holes, no
		// ledger could serve the victim's crash-time position during repair.
		return chaosLedgers[:2], func(inj *chaos.Injector, _ string) chaosBuild {
			return chaosBuild{engine: wrapNth(inj, 1), repair: true}
		}
	case "skew":
		return chaosLedgers, func(inj *chaos.Injector, _ string) chaosBuild {
			return chaosBuild{door: &ingress.Config{
				Capacity: 256, MaxBlock: 64, BuildInterval: time.Millisecond,
				CommitTimeout: 300 * time.Millisecond, TimeoutSkew: inj.SkewTimeout,
			}}
		}
	}
	unknown := func(Scale, chaosBuild) (*chaosTarget, error) {
		return nil, fmt.Errorf("unknown fault %q (crash|net|engine|skew)", fault)
	}
	return []chaosSystem{unknown}, func(*chaos.Injector, string) chaosBuild { return chaosBuild{} }
}

// wrapNth wraps only the n-th engine the system opens (construction
// order), making that node the single write-fault victim. The fresh
// engine a recovering victim re-opens arrives after construction, so it
// passes through clean and repair-by-replay lands on a healthy store.
func wrapNth(inj *chaos.Injector, n int) func(storage.Engine) storage.Engine {
	var calls atomic.Int32
	return func(e storage.Engine) storage.Engine {
		if int(calls.Add(1))-1 == n {
			return inj.WrapEngine(e)
		}
		return e
	}
}

// chaosInjector maps (fault, rate) onto an injector config. The seed is
// fixed: rerunning a row replays the identical fault sequence.
func chaosInjector(fault string, rate float64) *chaos.Injector {
	c := chaos.Config{Seed: 42}
	switch fault {
	case "net":
		c.DropRate, c.DelayRate, c.MaxDelay = rate, rate, 2*time.Millisecond
	case "engine":
		c.WriteFailRate, c.StallRate, c.MaxStall = rate, rate, 500*time.Microsecond
	case "skew":
		c.SkewMin, c.SkewMax = rate, 1.0
	}
	return chaos.MustNew(c)
}

// chaosRow measures one system under one fault type and rate.
func chaosRow(t *Table, sc Scale, cfg ycsb.Config, fault string, rate float64,
	newSys chaosSystem, wire func(*chaos.Injector, string) chaosBuild) {
	inj := chaosInjector(fault, rate)
	// The engine and skew seams are wired at construction, so the
	// injector stays disarmed through build and preload: the baseline
	// state loads cleanly and every injected fault lands on measured
	// traffic.
	inj.Disarm()
	var (
		tg  *chaosTarget
		dir string
	)
	build := func() (system.System, error) {
		var err error
		if dir, err = os.MkdirTemp("", "dichotomy-chaos-*"); err != nil {
			return nil, err
		}
		if tg, err = newSys(sc, wire(inj, dir)); err != nil {
			return nil, err
		}
		return tg.sys, nil
	}
	t.measure([]any{fault, fmt.Sprintf("%g", rate)}, build, loadYCSB(cfg), func(sys system.System) [][]any {
		if fault == "net" {
			tg.setFaults(inj.MessageFault)
		}
		inj.Arm()

		var events []chaos.Event
		if fault == "crash" {
			n := max(1, int(rate*20+0.5))
			span := sc.Warmup + sc.Duration*2/3
			events = chaos.Schedule(42, 1, n, span, 50*time.Millisecond, 150*time.Millisecond)
		}
		var (
			recTotal time.Duration
			recN     int
			recErr   error
		)
		done := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(done)
			for _, ev := range events {
				if d := time.Until(start.Add(ev.At)); d > 0 {
					//lint:allow sleepyloop waiting out the seeded schedule's next crash offset
					time.Sleep(d)
				}
				tg.crash()
				//lint:allow sleepyloop the scheduled downtime between crash and recovery
				time.Sleep(ev.Down)
				r0 := time.Now()
				if err := tg.recover(); err != nil {
					recErr = err
					return
				}
				recTotal += time.Since(r0)
				recN++
			}
		}()
		r := runYCSBWith(sys, cfg, bench.Options{
			Workers: sc.Workers, Duration: sc.Duration, Warmup: sc.Warmup,
			Mode: bench.OpenLoop, TargetRate: 400, Arrival: bench.Poisson, Seed: 7,
			Retries: 3, RetryBackoff: 2 * time.Millisecond,
		})
		<-done

		inj.Disarm()
		if fault == "net" {
			tg.setFaults(nil)
		}
		verified := "ok"
		switch {
		case recErr != nil:
			verified = "recover: " + recErr.Error()
		case tg.repair != nil:
			if err := tg.repair(); err != nil {
				verified = "repair: " + err.Error()
			}
		}
		if verified == "ok" {
			verified = tg.verify()
		}
		st := inj.Stats()
		injected := st.Dropped + st.Delayed + st.WriteFaults + st.WriteStalls +
			st.SkewedTimeouts + uint64(recN)
		var recMean time.Duration
		if recN > 0 {
			recMean = recTotal / time.Duration(recN)
		}
		return [][]any{{r.TPS, r.Committed, r.Aborted, r.Errors - r.Sheds, r.Sheds, r.Retries,
			injected, recMean, verified}}
	})
	os.RemoveAll(dir)
}

// --- per-system wiring ---

func durableCkpt(b chaosBuild) (interval uint64, mode recovery.Mode, fullEvery int) {
	if b.dir == "" {
		return 0, recovery.ModeFull, 0
	}
	return 8, recovery.ModeDelta, 4
}

func chaosFabric(sc Scale, b chaosBuild) (*chaosTarget, error) {
	peers := sc.Nodes
	interval, mode, fullEvery := durableCkpt(b)
	cfg := fabric.Config{
		Peers: peers, EndorsementsNeeded: max(1, peers-2),
		EngineHook: b.engine, Ingress: b.door,
		DataDir: b.dir, CheckpointInterval: interval, CheckpointMode: mode,
		CheckpointFullEvery: fullEvery,
	}
	if b.dir != "" {
		cfg.CheckpointKeep = 1 << 20
	}
	nw, err := newFabric(cfg)
	if err != nil {
		return nil, err
	}
	t := &chaosTarget{
		sys:       nw,
		setFaults: nw.SetFaults,
		crash:     func() { nw.CrashPeer(1) },
		recover: func() error {
			_, err := nw.RecoverPeer(1, 0, 0)
			return err
		},
		verify: storesConverged(peers, func(i int) uint64 { return nw.Ledger(i).Height() }, nw.State),
	}
	if b.repair {
		t.repair = func() error {
			// Node 1 is the wrapNth victim; replay the canonical chain
			// from healthy peer 0 onto a fresh engine.
			nw.CrashPeer(1)
			_, err := nw.RecoverPeer(1, 0, 0)
			return err
		}
	}
	return t, nil
}

func chaosQuorum(sc Scale, b chaosBuild) (*chaosTarget, error) {
	nodes := sc.Nodes
	interval, mode, fullEvery := durableCkpt(b)
	nw, err := newQuorum(quorum.Config{
		Nodes: nodes, EngineHook: b.engine, Ingress: b.door,
		DataDir: b.dir, CheckpointInterval: interval, CheckpointMode: mode,
		CheckpointFullEvery: fullEvery,
	})
	if err != nil {
		return nil, err
	}
	vic := 1
	t := &chaosTarget{
		sys:       nw,
		setFaults: nw.SetFaults,
		crash: func() {
			// Crash a follower: the raft group keeps a leader and the
			// crashed node rejoins via the live block-sync handoff.
			l := nw.Leader()
			if l < 0 {
				l = 0
			}
			vic = (l + 1) % nodes
			nw.CrashNode(vic)
		},
		recover: func() error {
			_, err := nw.RecoverNode(vic, (vic+1)%nodes, 0)
			return err
		},
		verify: storesConverged(nodes, func(i int) uint64 { return nw.Ledger(i).Height() }, nw.State),
	}
	if b.repair {
		t.repair = func() error {
			// Node 1 is the wrapNth victim; replay the canonical chain
			// from healthy node 0 onto a fresh engine.
			nw.CrashNode(1)
			_, err := nw.RecoverNode(1, 0, 0)
			return err
		}
	}
	return t, nil
}

func chaosVeritas(_ Scale, b chaosBuild) (*chaosTarget, error) {
	const verifiers = 3
	interval, mode, fullEvery := durableCkpt(b)
	v, err := hybrid.NewVeritas(hybrid.VeritasConfig{
		Verifiers: verifiers, Ingress: b.door,
		DataDir: b.dir, CheckpointInterval: interval, CheckpointMode: mode,
		CheckpointFullEvery: fullEvery,
	})
	if err != nil {
		return nil, err
	}
	return &chaosTarget{
		sys:       v,
		setFaults: v.SetFaults,
		crash:     func() { v.CrashVerifier(1) },
		recover: func() error {
			_, err := v.RecoverVerifier(1, 0)
			return err
		},
		verify: storesConverged(verifiers, v.Height, v.State),
	}, nil
}

func chaosBigchain(sc Scale, b chaosBuild) (*chaosTarget, error) {
	nodes := sc.Nodes
	interval, mode, fullEvery := durableCkpt(b)
	bc, err := hybrid.NewBigchain(hybrid.BigchainConfig{
		Nodes:   nodes,
		DataDir: b.dir, CheckpointInterval: interval, CheckpointMode: mode,
		CheckpointFullEvery: fullEvery,
	})
	if err != nil {
		return nil, err
	}
	return &chaosTarget{
		sys:       bc,
		setFaults: bc.SetFaults,
		crash:     func() { bc.CrashValidator(2) },
		recover: func() error {
			_, err := bc.RecoverValidator(2, 0, 0)
			return err
		},
		verify: storesConverged(nodes, bc.Height, bc.State),
	}, nil
}

func chaosTiDB(_ Scale, b chaosBuild) (*chaosTarget, error) {
	interval, mode, fullEvery := durableCkpt(b)
	c := tidb.New(tidb.Config{
		Servers: 2, StorageNodes: 3, Regions: 2,
		DataDir: b.dir, CheckpointInterval: interval, CheckpointMode: mode,
		CheckpointFullEvery: fullEvery,
	})
	return chaosGroups(c, c.SetFaults, groupSurface{c.Regions(), c.RegionReplicas,
		c.CrashReplica, c.RecoverReplica, c.ReplicaApplied, c.DumpRegion}), nil
}

func chaosSpanner(_ Scale, b chaosBuild) (*chaosTarget, error) {
	interval, mode, fullEvery := durableCkpt(b)
	c := spanner.New(spanner.Config{
		Shards: 2, NodesPerShard: 3,
		DataDir: b.dir, CheckpointInterval: interval, CheckpointMode: mode,
		CheckpointFullEvery: fullEvery,
	})
	return chaosGroups(c, c.SetFaults, groupSurface{c.Shards(), c.ShardReplicas,
		c.CrashReplica, c.RecoverReplica, c.ReplicaApplied, c.DumpShard}), nil
}

// groupSurface is the crash and inspection surface of a database whose
// data sits in replicated groups — TiDB's regions, Spanner's shards — as
// the method values of either.
type groupSurface struct {
	groups   int
	replicas func(group int) int
	crash    func(group, replica int)
	recover  func(group, replica int) (recovery.Stats, error)
	applied  func(group, replica int) uint64
	dump     func(group, replica int) map[string][]byte
}

// chaosGroups wires such a database: the victim is replica 2 of every
// group at once, and every group must converge on its own.
func chaosGroups(sys system.System, setFaults func(cluster.FaultHook), d groupSurface) *chaosTarget {
	const vic = 2
	return &chaosTarget{
		sys:       sys,
		setFaults: setFaults,
		crash: func() {
			for g := 0; g < d.groups; g++ {
				d.crash(g, vic)
			}
		},
		recover: func() error {
			var first error
			for g := 0; g < d.groups; g++ {
				if _, err := d.recover(g, vic); err != nil && first == nil {
					first = err
				}
			}
			return first
		},
		verify: func() string {
			for g := 0; g < d.groups; g++ {
				verdict := converged(d.replicas(g),
					func(p int) uint64 { return d.applied(g, p) },
					func(p int) bool { return sameDumps(d.dump(g, 0), d.dump(g, p)) })
				if verdict != "ok" {
					return verdict
				}
			}
			return "ok"
		},
	}
}

// --- convergence helpers ---

// quiesce polls the n replicas' heights until all are equal and the common
// value has held still for three consecutive polls, and returns it.
func quiesce(n int, height func(i int) uint64) (uint64, bool) {
	deadline := time.Now().Add(15 * time.Second)
	var prev uint64
	stable := 0
	for time.Now().Before(deadline) {
		h, same := height(0), true
		for i := 1; i < n && same; i++ {
			same = height(i) == h
		}
		if same && h == prev {
			if stable++; stable >= 3 {
				return h, true
			}
		} else {
			stable = 0
		}
		prev = h
		//lint:allow sleepyloop convergence poll in the chaos and recovery measurement harnesses
		time.Sleep(5 * time.Millisecond)
	}
	return 0, false
}

// converged is the one post-run check: wait for the n replicas to quiesce,
// then require same(i) of every replica i against replica 0.
func converged(n int, height func(i int) uint64, same func(i int) bool) string {
	if _, ok := quiesce(n, height); !ok {
		return "no-quiesce"
	}
	for i := 1; i < n; i++ {
		if !same(i) {
			return "DIVERGED"
		}
	}
	return "ok"
}

// storesConverged is converged over replicas that keep a state.Store.
func storesConverged(n int, height func(i int) uint64, store func(i int) *state.Store) func() string {
	return func() string {
		return converged(n, height, func(i int) bool { return sameStores(store(0), store(i)) })
	}
}

// sameStores diffs two state stores' values and versions.
func sameStores(a, b *state.Store) bool {
	type entry struct {
		value string
		ver   txn.Version
	}
	want := make(map[string]entry)
	a.Dump(func(key string, value []byte, ver txn.Version) bool {
		want[key] = entry{string(value), ver}
		return true
	})
	same := true
	count := 0
	b.Dump(func(key string, value []byte, ver txn.Version) bool {
		count++
		e, ok := want[key]
		if !ok || e.value != string(value) || e.ver != ver {
			same = false
			return false
		}
		return true
	})
	return same && count == len(want)
}

// sameDumps diffs two encoded replica dumps byte for byte.
func sameDumps(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if string(b[k]) != string(v) {
			return false
		}
	}
	return true
}
