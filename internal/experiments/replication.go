package experiments

import (
	"fmt"
	"io"

	"dichotomy/internal/system"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/ycsb"
)

// Fig7 reproduces "Quorum throughput with CFT (Raft) and BFT (IBFT)":
// peak tps as the tolerated-failure budget f grows. Raft needs 2f+1
// nodes, IBFT 3f+1 — the quorum-size gap behind IBFT's variance.
func Fig7(w io.Writer, sc Scale, fs []int) {
	Header(w, "Fig 7: Quorum Raft vs IBFT throughput by tolerated failures f")
	Row(w, "f", "raft-nodes", "raft-tps", "ibft-nodes", "ibft-tps")
	if len(fs) == 0 {
		fs = []int{1, 2}
	}
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100}
	for _, f := range fs {
		raftNodes := 2*f + 1
		ibftNodes := 3*f + 1
		var raftTPS, ibftTPS float64
		if sys, err := BuildQuorum(raftNodes, quorum.Raft, client); err == nil {
			if err := PreloadYCSB(sys, cfg, client); err == nil {
				raftTPS = RunYCSB(sys, cfg, sc, 0, client).TPS
			}
			sys.Close()
		}
		if sys, err := BuildQuorum(ibftNodes, quorum.IBFT, client); err == nil {
			if err := PreloadYCSB(sys, cfg, client); err == nil {
				ibftTPS = RunYCSB(sys, cfg, sc, 0, client).TPS
			}
			sys.Close()
		}
		Row(w, fmt.Sprintf("f=%d", f), raftNodes, raftTPS, ibftNodes, ibftTPS)
	}
}

// Fig8 reproduces the latency breakdowns: Fabric's execute/order/validate
// phases unsaturated vs saturated, and the query-path decomposition
// (Fabric: auth/simulate/endorse; TiDB: parse/compile/storage-get).
func Fig8(w io.Writer, sc Scale) {
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}

	Header(w, "Fig 8a: Fabric update latency breakdown (unsaturated vs saturated)")
	Row(w, "load", "execute", "order", "validate")
	for _, load := range []struct {
		name    string
		workers int
	}{
		{"unsaturated", 1},
		{"saturated", sc.Workers * 4},
	} {
		build := func() (system.System, error) { return BuildFabric(sc.Nodes, client) }
		ycsbPoint(w, build, cfg, client, []any{load.name}, func(sys system.System) {
			r := RunYCSB(sys, cfg, sc, load.workers, client)
			Row(w, load.name,
				PhaseMean(r, PhaseProposal), // endorsement round = execute phase
				PhaseMean(r, PhaseOrder),
				PhaseMean(r, PhaseValidate))
		})
	}

	Header(w, "Fig 8b: query latency breakdown")
	queryCfg := cfg
	queryCfg.ReadFraction = 1
	if sys, err := BuildFabric(sc.Nodes, client); err == nil {
		if err := PreloadYCSB(sys, cfg, client); err == nil {
			r := RunYCSB(sys, queryCfg, sc, 1, client)
			Row(w, "fabric:", "auth", PhaseMean(r, PhaseAuth))
			Row(w, "", "simulate", PhaseMean(r, PhaseSimulate))
			Row(w, "", "endorse", PhaseMean(r, PhaseEndorse))
		}
		sys.Close()
	}
	{
		sys := BuildTiDB(3, 3)
		if err := PreloadYCSB(sys, cfg, client); err == nil {
			r := RunYCSB(sys, queryCfg, sc, 1, client)
			Row(w, "tidb:", "sql-parse", PhaseMean(r, PhaseSQLParse))
			Row(w, "", "sql-compile", PhaseMean(r, PhaseSQLPlan))
			Row(w, "", "storage-get", PhaseMean(r, PhaseStorage))
		}
		sys.Close()
	}
}

// Table4 reproduces "Throughput with varying number of nodes under full
// replication mode" for all four systems.
func Table4(w io.Writer, sc Scale, nodeCounts []int) {
	Header(w, "Table 4: throughput (tps) vs nodes, full replication")
	Row(w, "system", "nodes", "tps")
	if len(nodeCounts) == 0 {
		nodeCounts = []int{3, 7, 11}
	}
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	for _, n := range nodeCounts {
		builds := []builder{
			func() (system.System, error) { return BuildFabric(n, client) },
			func() (system.System, error) { return BuildQuorum(n, quorum.Raft, client) },
			func() (system.System, error) { return BuildTiDB(n, n), nil },
			func() (system.System, error) { return BuildEtcd(n), nil },
		}
		for _, build := range builds {
			ycsbPoint(w, build, cfg, client, []any{n}, func(sys system.System) {
				r := RunYCSB(sys, cfg, sc, 0, client)
				Row(w, sys.Name(), n, r.TPS)
			})
		}
	}
}

// Table5 reproduces the TiDB-servers × TiKV-nodes throughput grid.
func Table5(w io.Writer, sc Scale, counts []int) {
	Header(w, "Table 5: TiDB servers × TiKV nodes throughput grid (tps)")
	if len(counts) == 0 {
		counts = []int{1, 3, 5}
	}
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	hdr := []any{"tidb\\tikv"}
	for _, kv := range counts {
		hdr = append(hdr, kv)
	}
	Row(w, hdr...)
	for _, servers := range counts {
		cols := []any{fmt.Sprintf("%d", servers)}
		for _, storageNodes := range counts {
			sys := BuildTiDB(servers, storageNodes)
			tps := 0.0
			if err := PreloadYCSB(sys, cfg, client); err == nil {
				tps = RunYCSB(sys, cfg, sc, 0, client).TPS
			}
			sys.Close()
			cols = append(cols, tps)
		}
		Row(w, cols...)
	}
}
