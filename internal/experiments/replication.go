package experiments

import (
	"fmt"

	"dichotomy/internal/metrics"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/ycsb"
)

// Fig7 reproduces "Quorum throughput with CFT (Raft) and BFT (IBFT)":
// peak tps as the tolerated-failure budget f grows. Raft needs 2f+1
// nodes, IBFT 3f+1 — the quorum-size gap behind IBFT's variance.
func Fig7(sc Scale, fs []int) []Table {
	t := Table{Title: "Fig 7: Quorum Raft vs IBFT throughput by tolerated failures f",
		Cols: []string{"system", "f", "nodes", "tps"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100}
	for _, f := range fs {
		for _, c := range []quorum.Config{{Nodes: 2*f + 1, Consensus: quorum.Raft}, {Nodes: 3*f + 1, Consensus: quorum.IBFT}} {
			build := func() (system.System, error) { return newQuorum(c) }
			t.measure([]any{fmt.Sprintf("f=%d", f), c.Nodes}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				return [][]any{{runYCSB(sys, cfg, sc, 0).TPS}}
			})
		}
	}
	return []Table{t}
}

// Fig8 reproduces the latency breakdowns: Fabric's execute/order/validate
// phases unsaturated vs saturated, and the query-path decomposition
// (Fabric: auth/simulate/endorse; TiDB: parse/compile/storage-get).
func Fig8(sc Scale) []Table {
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	fab := func() (system.System, error) { return newFabric(fabric.Config{Peers: sc.Nodes}) }
	a := Table{Title: "Fig 8a: Fabric update latency breakdown (unsaturated vs saturated)",
		Cols: []string{"system", "load", "execute", "order", "validate"}}
	for _, load := range []struct {
		name    string
		workers int
	}{
		{"unsaturated", 1},
		{"saturated", sc.Workers * 4},
	} {
		a.measure([]any{load.name}, fab, loadYCSB(cfg), func(sys system.System) [][]any {
			p := runYCSB(sys, cfg, sc, load.workers).Phases
			// The endorsement round is the execute phase.
			return [][]any{{p.Mean(metrics.PhaseProposal), p.Mean(metrics.PhaseOrder), p.Mean(metrics.PhaseValidate)}}
		})
	}

	b := Table{Title: "Fig 8b: query latency breakdown", Cols: []string{"system", "phase", "mean"}}
	queryCfg := cfg
	queryCfg.ReadFraction = 1
	for _, q := range []struct {
		build  builder
		phases []string
	}{
		{fab, []string{metrics.PhaseAuth, metrics.PhaseSimulate, metrics.PhaseEndorse}},
		{func() (system.System, error) { return newTiDB(3, 3), nil },
			[]string{metrics.PhaseSQLParse, metrics.PhaseSQLPlan, metrics.PhaseStorage}},
	} {
		b.measure(nil, q.build, loadYCSB(cfg), func(sys system.System) [][]any {
			p := runYCSB(sys, queryCfg, sc, 1).Phases
			var rows [][]any
			for _, phase := range q.phases {
				rows = append(rows, []any{phase, p.Mean(phase)})
			}
			return rows
		})
	}
	return []Table{a, b}
}

// Table4 reproduces "Throughput with varying number of nodes under full
// replication mode" for all four systems.
func Table4(sc Scale, nodeCounts []int) []Table {
	t := Table{Title: "Table 4: throughput (tps) vs nodes, full replication", Cols: []string{"system", "nodes", "tps"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	for _, n := range nodeCounts {
		for _, build := range paperSystems(n, n) {
			t.measure([]any{n}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				return [][]any{{runYCSB(sys, cfg, sc, 0).TPS}}
			})
		}
	}
	return []Table{t}
}

// Table5 reproduces the TiDB-servers × TiKV-nodes throughput grid, one row
// per cell.
func Table5(sc Scale, counts []int) []Table {
	t := Table{Title: "Table 5: TiDB servers × TiKV nodes throughput grid (tps)",
		Cols: []string{"system", "servers", "tikv", "tps"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	for _, servers := range counts {
		for _, storageNodes := range counts {
			build := func() (system.System, error) { return newTiDB(servers, storageNodes), nil }
			t.measure([]any{servers, storageNodes}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				return [][]any{{runYCSB(sys, cfg, sc, 0).TPS}}
			})
		}
	}
	return []Table{t}
}
