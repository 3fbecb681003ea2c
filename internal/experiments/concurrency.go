package experiments

import (
	"io"

	"dichotomy/internal/system"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/ycsb"
)

// Fig9 reproduces "Throughput and abort rate with skewed workloads": each
// transaction read-modify-writes one record whose key follows a Zipfian
// distribution of coefficient θ.
func Fig9(w io.Writer, sc Scale, thetas []float64) {
	Header(w, "Fig 9: throughput & abort rate vs zipfian θ (single-record modify)")
	Row(w, "system", "theta", "tps", "abort%")
	if len(thetas) == 0 {
		thetas = []float64{0, 0.6, 1.0}
	}
	client := Client()
	for _, theta := range thetas {
		cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000, Theta: theta}
		builds := []builder{
			func() (system.System, error) { return BuildFabric(sc.Nodes, client) },
			func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
			func() (system.System, error) { return BuildTiDB(3, 3), nil },
			func() (system.System, error) { return BuildEtcd(3), nil },
		}
		for _, build := range builds {
			ycsbPoint(w, build, cfg, client, []any{theta}, func(sys system.System) {
				r := RunYCSB(sys, cfg, sc, 0, client)
				Row(w, sys.Name(), theta, r.TPS, r.AbortRate())
			})
		}
	}
}

// Fig10 reproduces "Throughput and abort rate with uniformly modified
// records in a single transaction": the operation count grows while the
// total transaction payload stays ~1000 bytes, and aborts are decomposed
// by cause (Fabric: inconsistent reads vs read-write conflicts; TiDB:
// write-write conflicts).
func Fig10(w io.Writer, sc Scale, opCounts []int) {
	Header(w, "Fig 10: throughput & abort decomposition vs ops/txn (1000B total)")
	Row(w, "system", "ops", "tps", "abort%", "rw-confl", "incons-rd", "ww-confl")
	if len(opCounts) == 0 {
		opCounts = []int{1, 4, 10}
	}
	client := Client()
	for _, ops := range opCounts {
		cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000, OpsPerTxn: ops}
		builds := []builder{
			func() (system.System, error) { return BuildFabric(sc.Nodes, client) },
			func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
			func() (system.System, error) { return BuildTiDB(3, 3), nil },
		}
		for _, build := range builds {
			ycsbPoint(w, build, cfg, client, []any{ops}, func(sys system.System) {
				r := RunYCSB(sys, cfg, sc, 0, client)
				Row(w, sys.Name(), ops, r.TPS, r.AbortRate(),
					r.AbortBy["read-write-conflict"],
					r.AbortBy["inconsistent-read"],
					r.AbortBy["write-write-conflict"])
			})
		}
	}
}

// Fig11 reproduces "Performance under uniform update workload with
// increasing record size", including the Quorum proposal/consensus/commit
// latency breakdown that exposes MPT reconstruction cost.
func Fig11(w io.Writer, sc Scale, sizes []int) {
	Header(w, "Fig 11: throughput vs record size + Quorum latency breakdown")
	Row(w, "system", "size", "tps", "proposal", "consensus", "commit")
	if len(sizes) == 0 {
		sizes = []int{10, 1000, 5000}
	}
	client := Client()
	for _, size := range sizes {
		cfg := ycsb.Config{Records: sc.Records, RecordSize: size}
		builds := []builder{
			func() (system.System, error) { return BuildFabric(sc.Nodes, client) },
			func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
			func() (system.System, error) { return BuildTiDB(3, 3), nil },
			func() (system.System, error) { return BuildEtcd(3), nil },
		}
		for _, build := range builds {
			ycsbPoint(w, build, cfg, client, []any{size}, func(sys system.System) {
				r := RunYCSB(sys, cfg, sc, 0, client)
				if _, isQuorum := sys.(*quorum.Network); isQuorum {
					Row(w, sys.Name(), size, r.TPS,
						PhaseMean(r, PhaseProposal),
						PhaseMean(r, PhaseExecute),
						PhaseMean(r, PhaseCommit))
				} else {
					Row(w, sys.Name(), size, r.TPS, "-", "-", "-")
				}
			})
		}
	}
}
