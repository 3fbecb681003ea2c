// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each Fig*/Table* function builds the systems
// under test, preloads state, drives the workload through the bench
// harness, and prints rows shaped like the paper's plots. cmd/dichotomy-
// bench exposes them as subcommands; bench_test.go wraps them as Go
// benchmarks.
//
// Scale controls the cost: Quick() shrinks record counts, durations, and
// cluster sizes so the full suite completes in CI time, while Full()
// approaches the paper's parameters. Absolute numbers differ from the
// paper's testbed by construction; EXPERIMENTS.md records the shape
// comparison.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"dichotomy/internal/bench"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/hybrid"
	"dichotomy/internal/metrics"
	"dichotomy/internal/system"
	"dichotomy/internal/system/etcd"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/txn"
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

// Client is the benchmark's signing identity, registered on every
// blockchain it drives.
func Client() *cryptoutil.Signer { return cryptoutil.MustNewSigner("bench-client") }

// BuildFabric assembles a Fabric network with peers peers.
func BuildFabric(peers int, client *cryptoutil.Signer) (*fabric.Network, error) {
	nw, err := fabric.New(fabric.Config{Peers: peers})
	if err != nil {
		return nil, err
	}
	nw.RegisterClient(client.Name(), client.Public())
	return nw, nil
}

// BuildQuorum assembles a Quorum network.
func BuildQuorum(nodes int, kind quorum.ConsensusKind, client *cryptoutil.Signer) (*quorum.Network, error) {
	nw, err := quorum.New(quorum.Config{Nodes: nodes, Consensus: kind})
	if err != nil {
		return nil, err
	}
	nw.RegisterClient(client.Name(), client.Public())
	return nw, nil
}

// BuildVeritas assembles a Veritas-like prototype.
func BuildVeritas(verifiers int) (*hybrid.Veritas, error) {
	return hybrid.NewVeritas(hybrid.VeritasConfig{Verifiers: verifiers})
}

// BuildBigchain assembles a BigchainDB-like prototype.
func BuildBigchain(nodes int) (*hybrid.Bigchain, error) {
	return hybrid.NewBigchain(hybrid.BigchainConfig{Nodes: nodes})
}

// BuildTiDB assembles a TiDB cluster in full-replication mode.
func BuildTiDB(servers, storageNodes int) *tidb.Cluster {
	return tidb.New(tidb.Config{Servers: servers, StorageNodes: storageNodes, Regions: 8})
}

// BuildEtcd assembles an etcd cluster.
func BuildEtcd(nodes int) *etcd.Cluster {
	return etcd.New(etcd.Config{Nodes: nodes})
}

// TiKV adapts the TiDB storage layer as a standalone system (Fig 4's
// fifth bar): raw reads/writes through region raft groups, no SQL layer,
// no transactional machinery.
type TiKV struct {
	system.Blocking
	C *tidb.Cluster
}

// NewTiKV wraps c.
func NewTiKV(c *tidb.Cluster) *TiKV {
	t := &TiKV{C: c}
	t.Blocking = system.NewBlocking(t.execute)
	return t
}

// Name implements system.System.
func (t *TiKV) Name() string { return "tikv" }

func (t *TiKV) execute(x *txn.Tx) system.Result {
	inv := x.Invocation
	switch inv.Method {
	case "get":
		v, err := t.C.RawGet("kv/" + string(inv.Args[0]))
		if err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true, Value: v}
	default:
		if err := t.C.RawPut("kv/"+string(inv.Args[0]), inv.Args[1]); err != nil {
			return system.Result{Err: err}
		}
		return system.Result{Committed: true}
	}
}

// Close implements system.System.
func (t *TiKV) Close() { t.C.Close() }

// PreloadYCSB populates sys with the workload's key space.
func PreloadYCSB(sys system.System, cfg ycsb.Config, client *cryptoutil.Signer) error {
	cfg.Records = max(cfg.Records, 1)
	txs := make([]*txn.Tx, 0, cfg.Records)
	value := make([]byte, max(cfg.RecordSize, 1))
	for i := 0; i < cfg.Records; i++ {
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

// builder assembles one system under test.
type builder func() (system.System, error)

// ycsbPoint measures one data point of a sweep: it builds a system,
// preloads cfg's key space, hands the system to run — which prints the
// point's row — and closes it. A build or a preload that fails prints a row
// saying which and why, under the point's own leading columns, so a sweep
// never comes up a point short without a word.
func ycsbPoint(w io.Writer, build builder, cfg ycsb.Config, client *cryptoutil.Signer, point []any, run func(sys system.System)) {
	sys, err := build()
	if err != nil {
		Row(w, slices.Concat([]any{"-"}, point, []any{"build-error", err.Error()})...)
		return
	}
	defer sys.Close()
	if err := PreloadYCSB(sys, cfg, client); err != nil {
		Row(w, slices.Concat([]any{sys.Name()}, point, []any{"preload-error", err.Error()})...)
		return
	}
	run(sys)
}

// BenchOptions builds the closed-loop harness options for sc; workers ≤ 0
// selects the scale's saturation worker count.
func BenchOptions(sc Scale, workers int) bench.Options {
	if workers <= 0 {
		workers = sc.Workers
	}
	return bench.Options{
		Workers:  workers,
		Duration: sc.Duration,
		Warmup:   sc.Warmup,
	}
}

// RunYCSB drives the workload closed-loop and returns the report.
func RunYCSB(sys system.System, cfg ycsb.Config, sc Scale, workers int, client *cryptoutil.Signer) bench.Report {
	return RunYCSBOptions(sys, cfg, BenchOptions(sc, workers), client)
}

// RunYCSBOpenLoop drives the workload with Poisson arrivals at rate tx/s
// (deterministic seed) and returns a report separating queueing delay
// from service latency.
func RunYCSBOpenLoop(sys system.System, cfg ycsb.Config, sc Scale, workers int, rate float64, client *cryptoutil.Signer) bench.Report {
	opt := BenchOptions(sc, workers)
	opt.Mode = bench.OpenLoop
	opt.TargetRate = rate
	opt.Arrival = bench.Poisson
	opt.Seed = 1
	return RunYCSBOptions(sys, cfg, opt, client)
}

// RunYCSBOptions drives the workload with fully explicit harness options.
func RunYCSBOptions(sys system.System, cfg ycsb.Config, opt bench.Options, client *cryptoutil.Signer) bench.Report {
	if opt.Workers <= 0 {
		opt.Workers = 8
	}
	sources := make([]bench.TxSource, opt.Workers)
	for i := range sources {
		gen := ycsb.NewGenerator(withSeed(cfg, int64(i+1)), client)
		sources[i] = bench.FuncSource(gen.Next)
	}
	return bench.Run(sys, sources, opt)
}

func withSeed(cfg ycsb.Config, seed int64) ycsb.Config {
	cfg.Seed = seed
	return cfg
}

// Row prints one aligned table row.
func Row(w io.Writer, cols ...any) {
	for i, c := range cols {
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

// Header prints a figure banner.
func Header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// PhaseMean extracts one phase's mean from a report.
func PhaseMean(r bench.Report, phase string) time.Duration {
	return r.Phases.Mean(phase)
}

// Phases of interest re-exported for the runner.
const (
	PhaseProposal = metrics.PhaseProposal
	PhaseExecute  = metrics.PhaseExecute
	PhaseOrder    = metrics.PhaseOrder
	PhaseValidate = metrics.PhaseValidate
	PhaseCommit   = metrics.PhaseCommit
	PhaseAuth     = metrics.PhaseAuth
	PhaseSimulate = metrics.PhaseSimulate
	PhaseEndorse  = metrics.PhaseEndorse
	PhaseSQLParse = metrics.PhaseSQLParse
	PhaseSQLPlan  = metrics.PhaseSQLPlan
	PhaseStorage  = metrics.PhaseStorage
)
