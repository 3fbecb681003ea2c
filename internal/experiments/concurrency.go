package experiments

import (
	"dichotomy/internal/metrics"
	"dichotomy/internal/system"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/ycsb"
)

// Fig9 reproduces "Throughput and abort rate with skewed workloads": each
// transaction read-modify-writes one record whose key follows a Zipfian
// distribution of coefficient θ.
func Fig9(sc Scale, thetas []float64) []Table {
	t := Table{Title: "Fig 9: throughput & abort rate vs zipfian θ (single-record modify)",
		Cols: []string{"system", "theta", "tps", "abort%"}}
	for _, theta := range thetas {
		cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000, Theta: theta}
		for _, build := range paperSystems(sc.Nodes, 3) {
			t.measure([]any{theta}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				r := runYCSB(sys, cfg, sc, 0)
				return [][]any{{r.TPS, r.AbortRate()}}
			})
		}
	}
	return []Table{t}
}

// Fig10 reproduces "Throughput and abort rate with uniformly modified
// records in a single transaction": the operation count grows while the
// total transaction payload stays ~1000 bytes, and aborts are decomposed
// by cause (Fabric: inconsistent reads vs read-write conflicts; TiDB:
// write-write conflicts).
func Fig10(sc Scale, opCounts []int) []Table {
	t := Table{Title: "Fig 10: throughput & abort decomposition vs ops/txn (1000B total)",
		Cols: []string{"system", "ops", "tps", "abort%", "rw-confl", "incons-rd", "ww-confl"}}
	for _, ops := range opCounts {
		cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000, OpsPerTxn: ops}
		for _, build := range paperSystems(sc.Nodes, 3)[:3] { // fabric, quorum, tidb
			t.measure([]any{ops}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				r := runYCSB(sys, cfg, sc, 0)
				return [][]any{{r.TPS, r.AbortRate(), r.AbortBy["read-write-conflict"],
					r.AbortBy["inconsistent-read"], r.AbortBy["write-write-conflict"]}}
			})
		}
	}
	return []Table{t}
}

// Fig11 reproduces "Performance under uniform update workload with
// increasing record size", including the Quorum proposal/consensus/commit
// latency breakdown that exposes MPT reconstruction cost.
func Fig11(sc Scale, sizes []int) []Table {
	t := Table{Title: "Fig 11: throughput vs record size + Quorum latency breakdown",
		Cols: []string{"system", "size", "tps", "proposal", "consensus", "commit"}}
	for _, size := range sizes {
		cfg := ycsb.Config{Records: sc.Records, RecordSize: size}
		for _, build := range paperSystems(sc.Nodes, 3) {
			t.measure([]any{size}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				r := runYCSB(sys, cfg, sc, 0)
				if _, isQuorum := sys.(*quorum.Network); !isQuorum {
					return [][]any{{r.TPS, "-", "-", "-"}}
				}
				return [][]any{{r.TPS, r.Phases.Mean(metrics.PhaseProposal),
					r.Phases.Mean(metrics.PhaseExecute), r.Phases.Mean(metrics.PhaseCommit)}}
			})
		}
	}
	return []Table{t}
}

// Contention sweeps closed-loop worker counts per system under a mildly
// skewed single-record update workload. Before the shared striped state
// layer (internal/state), every system serialized engine access plus its
// version map behind one global mutex, so this sweep measured lock
// convoys; with striping it measures each design's actual concurrency
// ceiling. p99 rising much faster than throughput at high worker counts
// is the convoy signature to watch for.
func Contention(sc Scale, workerCounts []int) []Table {
	t := Table{Title: "Contention: throughput & tail latency vs closed-loop workers (modify, θ=0.6)",
		Cols: []string{"system", "workers", "tps", "p50", "p99", "abort%"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100, Theta: 0.6}
	for _, build := range append(paperSystems(sc.Nodes, 3), newVeritas, newBigchain) {
		for _, workers := range workerCounts {
			t.measure([]any{workers}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				r := runYCSB(sys, cfg, sc, workers)
				return [][]any{{r.TPS, r.Latency.P50, r.Latency.P99, r.AbortRate()}}
			})
		}
	}
	return []Table{t}
}
