// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each Fig*/Table* function builds the systems
// under test, preloads state, drives the workload through the bench
// harness, and returns tables shaped like the paper's plots, whose cells
// keep their Go values; Table.Render prints them. Registry lists every
// experiment once, with its quick and full sweep axes: cmd/dichotomy-bench
// runs it by name, and bench_test.go at the repository root runs it as Go
// benchmarks.
//
// Scale controls the cost: Quick() shrinks record counts, durations, and
// cluster sizes so the full suite completes in CI time, while Full()
// approaches the paper's parameters. Absolute numbers differ from the
// paper's testbed by construction; README.md maps each experiment to the
// figure or table whose shape it reproduces.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"dichotomy/internal/bench"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/system"
	"dichotomy/internal/system/etcd"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/txn"
	"dichotomy/internal/workload/smallbank"
	"dichotomy/internal/workload/ycsb"
)

// Scale sizes an experiment run.
type Scale struct {
	// Records is the YCSB key-space size.
	Records int
	// Accounts is the Smallbank account count.
	Accounts int
	// Duration is the measured window per data point.
	Duration time.Duration
	// Warmup precedes each measurement.
	Warmup time.Duration
	// Workers is the closed-loop client count at saturation.
	Workers int
	// Nodes is the default cluster size.
	Nodes int
}

// Quick returns the CI-sized scale.
func Quick() Scale {
	return Scale{
		Records:  2000,
		Accounts: 2000,
		Duration: 1500 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Workers:  16,
		Nodes:    4,
	}
}

// Full approaches the paper's parameters (long-running).
func Full() Scale {
	return Scale{
		Records:  100_000,
		Accounts: 1_000_000,
		Duration: 10 * time.Second,
		Warmup:   2 * time.Second,
		Workers:  64,
		Nodes:    4,
	}
}

// Experiment is one entry of Registry.
type Experiment struct {
	Name string
	// Run measures the experiment at sc over its quick axes, or over its
	// full axes when full is set.
	Run func(sc Scale, full bool) []Table
}

// recordSizes is the record-size axis of Figs 11–13 at both scales.
var recordSizes = []int{10, 100, 1000, 5000}

// Registry lists every experiment in the order `dichotomy-bench all` runs
// them.
var Registry = []Experiment{
	fixed("fig4", Fig4),
	fixed("fig5", Fig5),
	fixed("fig6", Fig6),
	swept("fig7", Fig7, []int{1, 2}, []int{1, 2, 3, 4, 5, 6}),
	fixed("fig8", Fig8),
	swept("table4", Table4, []int{3, 7, 11}, []int{3, 7, 11, 15, 19}),
	swept("table5", Table5, []int{1, 3, 5}, []int{3, 7, 11, 15, 19}),
	swept("fig9", Fig9, []float64{0, 0.6, 1.0}, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}),
	swept("fig10", Fig10, []int{1, 4, 10}, []int{1, 2, 4, 6, 8, 10}),
	swept("fig11", Fig11, recordSizes, recordSizes),
	swept("fig12", Fig12, recordSizes, recordSizes),
	swept("fig13", Fig13, recordSizes, recordSizes),
	swept("fig14", Fig14, []int{1, 2, 4}, []int{1, 2, 4, 8, 16}),
	fixed("fig15", Fig15),
	swept("peak", Peak, []float64{0.5, 0.9, 1.2}, []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.2}),
	swept("contention", Contention, []int{1, 4, 16}, []int{1, 4, 16, 64}),
	swept("blockshape", BlockShape,
		ShapeAxes{Sizes: []int{50, 200}, Workers: []int{1, 4}, Depths: []int{1, 2}},
		ShapeAxes{Sizes: []int{50, 100, 500, 1000}, Workers: []int{1, 2, 4, 8}, Depths: []int{1, 2, 4}}),
	swept("recovery", Recovery,
		RecoveryAxes{Modes: []string{"full", "delta"}, Intervals: []uint64{4, 16}, Crashes: []float64{0.5, 1.0}},
		RecoveryAxes{Modes: []string{"full", "delta"}, Intervals: []uint64{2, 8, 32, 128}, Crashes: []float64{0.25, 0.5, 0.75, 1.0}}),
	swept("sigverify", SigVerify, []string{"serial", "batch", "aggregate"}, []string{"serial", "batch", "aggregate"}),
	fixed("authreads", AuthReads),
	swept("ingress", Ingress, []float64{1, 2, 4}, []float64{0.5, 1, 2, 4, 8}),
	swept("chaos", Chaos,
		ChaosAxes{Faults: []string{"crash", "net", "engine", "skew"}, Rates: []float64{0.05}},
		ChaosAxes{Faults: []string{"crash", "net", "engine", "skew"}, Rates: []float64{0.02, 0.1}}),
}

// fixed declares an experiment without sweep axes.
func fixed(name string, run func(Scale) []Table) Experiment {
	return Experiment{name, func(sc Scale, _ bool) []Table { return run(sc) }}
}

// swept declares an experiment over axes of type A, with their quick and
// full values.
func swept[A any](name string, run func(Scale, A) []Table, quick, full A) Experiment {
	return Experiment{name, func(sc Scale, f bool) []Table {
		if f {
			return run(sc, full)
		}
		return run(sc, quick)
	}}
}

// Table is one experiment table: a title, named columns, and rows whose
// cells keep their Go values. A point that could not be measured is an
// error row: its leading cells, then "build-error" or "preload-error" and
// the error's text.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]any
}

// Render prints t: a banner, the column names, and one aligned line per
// row.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	head := make([]any, len(t.Cols))
	for i, c := range t.Cols {
		head[i] = c
	}
	printRow(w, head)
	for _, r := range t.Rows {
		printRow(w, r)
	}
}

func printRow(w io.Writer, cells []any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		switch v := c.(type) {
		case string:
			fmt.Fprintf(w, "%-14s", v)
		case float64:
			fmt.Fprintf(w, "%12.1f", v)
		case int:
			fmt.Fprintf(w, "%12d", v)
		case int64:
			fmt.Fprintf(w, "%12d", v)
		case uint64:
			fmt.Fprintf(w, "%12d", v)
		case time.Duration:
			fmt.Fprintf(w, "%12s", v.Round(10*time.Microsecond))
		default:
			fmt.Fprintf(w, "%12v", v)
		}
	}
	fmt.Fprintln(w)
}

// builder assembles one system under test.
type builder func() (system.System, error)

// loader commits a point's initial state.
type loader func(system.System) error

// measure runs one data point of a sweep — build, load, run, close — and
// adds the rows run returns, each led by the system's name and key, the
// point's own columns. A build or a load that fails adds one row saying
// which and why instead, so a sweep never comes up a point short or shows
// a zero for a point it did not measure.
func (t *Table) measure(key []any, build builder, load loader, run func(system.System) [][]any) {
	sys, err := build()
	if err != nil {
		t.Rows = append(t.Rows, slices.Concat([]any{"-"}, key, []any{"build-error", err.Error()}))
		return
	}
	defer sys.Close()
	if err := load(sys); err != nil {
		t.Rows = append(t.Rows, slices.Concat([]any{sys.Name()}, key, []any{"preload-error", err.Error()}))
		return
	}
	for _, cells := range run(sys) {
		t.Rows = append(t.Rows, slices.Concat([]any{sys.Name()}, key, cells))
	}
}

// client is the benchmark's signing identity, registered on every
// blockchain it drives.
var client = cryptoutil.MustNewSigner("bench-client")

func newFabric(cfg fabric.Config) (*fabric.Network, error) {
	nw, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	nw.RegisterClient(client.Name(), client.Public())
	return nw, nil
}

func newQuorum(cfg quorum.Config) (*quorum.Network, error) {
	nw, err := quorum.New(cfg)
	if err != nil {
		return nil, err
	}
	nw.RegisterClient(client.Name(), client.Public())
	return nw, nil
}

func newTiDB(servers, storageNodes int) *tidb.Cluster {
	return tidb.New(tidb.Config{Servers: servers, StorageNodes: storageNodes, Regions: 8})
}

// paperSystems builds the four systems the paper compares: Fabric and
// Quorum (Raft) on chainNodes nodes, TiDB and etcd on dbNodes.
func paperSystems(chainNodes, dbNodes int) []builder {
	return []builder{
		func() (system.System, error) { return newFabric(fabric.Config{Peers: chainNodes}) },
		func() (system.System, error) { return newQuorum(quorum.Config{Nodes: chainNodes}) },
		func() (system.System, error) { return newTiDB(dbNodes, dbNodes), nil },
		func() (system.System, error) { return etcd.New(etcd.Config{Nodes: dbNodes}), nil },
	}
}

func newVeritas() (system.System, error) {
	return hybrid.NewVeritas(hybrid.VeritasConfig{Verifiers: 3})
}

func newBigchain() (system.System, error) {
	return hybrid.NewBigchain(hybrid.BigchainConfig{Nodes: 4})
}

// tikv adapts the TiDB storage layer as a standalone system (Fig 4's
// fifth bar): raw reads/writes through region raft groups, no SQL layer,
// no transactional machinery.
type tikv struct {
	system.Blocking
	c *tidb.Cluster
}

func newTiKV(c *tidb.Cluster) *tikv {
	t := &tikv{c: c}
	t.Blocking = system.NewBlocking(t.execute)
	return t
}

// Name implements system.System.
func (t *tikv) Name() string { return "tikv" }

func (t *tikv) execute(x *txn.Tx) system.Result {
	inv := x.Invocation
	switch inv.Method {
	case "get":
		v, err := t.c.RawGet("kv/" + string(inv.Args[0]))
		if err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true, Value: v}
	default:
		if err := t.c.RawPut("kv/"+string(inv.Args[0]), inv.Args[1]); err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true}
	}
}

// Close implements system.System.
func (t *tikv) Close() { t.c.Close() }

// loadYCSB populates a system with cfg's key space.
func loadYCSB(cfg ycsb.Config) loader {
	return func(sys system.System) error {
		n := max(cfg.Records, 1)
		txs := make([]*txn.Tx, 0, n)
		value := make([]byte, max(cfg.RecordSize, 1))
		for i := 0; i < n; i++ {
			t, err := txn.Sign(client, txn.Invocation{
				Contract: "kv", Method: "put",
				Args: [][]byte{[]byte(ycsb.Key(i)), value},
			})
			if err != nil {
				return err
			}
			txs = append(txs, t)
		}
		return bench.Preload(sys, txs, 16)
	}
}

// loadSmallbank populates a system with cfg's accounts.
func loadSmallbank(cfg smallbank.Config) loader {
	return func(sys system.System) error {
		txs, err := cfg.LoadTxs(client)
		if err != nil {
			return err
		}
		return bench.Preload(sys, txs, 16)
	}
}

// benchOptions returns the harness options for a closed-loop run at sc;
// workers ≤ 0 selects the scale's saturation worker count.
func benchOptions(sc Scale, workers int) bench.Options {
	if workers <= 0 {
		workers = sc.Workers
	}
	return bench.Options{Workers: workers, Duration: sc.Duration, Warmup: sc.Warmup}
}

// openLoop returns the harness options for Poisson arrivals at rate tx/s
// (fixed seed) through workers dispatchers.
func openLoop(sc Scale, workers int, rate float64) bench.Options {
	opt := benchOptions(sc, workers)
	opt.Mode, opt.TargetRate, opt.Arrival, opt.Seed = bench.OpenLoop, rate, bench.Poisson, 1
	return opt
}

// runYCSB drives cfg's workload closed-loop with workers clients.
func runYCSB(sys system.System, cfg ycsb.Config, sc Scale, workers int) bench.Report {
	return runYCSBWith(sys, cfg, benchOptions(sc, workers))
}

// runYCSBWith drives cfg's workload under opt, one generator per worker.
func runYCSBWith(sys system.System, cfg ycsb.Config, opt bench.Options) bench.Report {
	sources := make([]bench.TxSource, opt.Workers)
	for i := range sources {
		cfg.Seed = int64(i + 1)
		sources[i] = ycsb.NewGenerator(cfg, client)
	}
	return bench.Run(sys, sources, opt)
}

// runSmallbank drives the Smallbank mix closed-loop at saturation.
func runSmallbank(sys system.System, cfg smallbank.Config, sc Scale) bench.Report {
	sources := make([]bench.TxSource, sc.Workers)
	for i := range sources {
		cfg.Seed = int64(i + 1)
		sources[i] = smallbank.NewGenerator(cfg, client)
	}
	return bench.Run(sys, sources, benchOptions(sc, 0))
}
