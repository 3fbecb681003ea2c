package experiments

import (
	"dichotomy/internal/system"
	"dichotomy/internal/workload/smallbank"
	"dichotomy/internal/workload/ycsb"
)

// fig4Systems builds the five systems of the peak-performance comparison.
func fig4Systems(sc Scale) []builder {
	return append(paperSystems(sc.Nodes, 3),
		func() (system.System, error) { return newTiKV(newTiDB(3, 3)), nil })
}

// Fig4 reproduces "Throughput of YCSB workload": peak tps for fabric,
// quorum, tidb, etcd, and standalone tikv under uniform update-only and
// query-only workloads.
func Fig4(sc Scale) []Table {
	t := Table{Title: "Fig 4: YCSB peak throughput (update / query), uniform, 1KB records",
		Cols: []string{"system", "update-tps", "query-tps"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	queryCfg := cfg
	queryCfg.ReadFraction = 1
	for _, build := range fig4Systems(sc) {
		t.measure(nil, build, loadYCSB(cfg), func(sys system.System) [][]any {
			return [][]any{{runYCSB(sys, cfg, sc, 0).TPS, runYCSB(sys, queryCfg, sc, 0).TPS}}
		})
	}
	return []Table{t}
}

// Fig5 reproduces "Latency of YCSB workload": unsaturated latency (single
// closed-loop client) for the same systems and workloads, with the P99
// tail alongside the paper's means.
func Fig5(sc Scale) []Table {
	t := Table{Title: "Fig 5: YCSB latency, unsaturated (update / query)",
		Cols: []string{"system", "update-mean", "update-p99", "query-mean", "query-p99"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	queryCfg := cfg
	queryCfg.ReadFraction = 1
	for _, build := range fig4Systems(sc) {
		t.measure(nil, build, loadYCSB(cfg), func(sys system.System) [][]any {
			update := runYCSB(sys, cfg, sc, 1)
			query := runYCSB(sys, queryCfg, sc, 1)
			return [][]any{{update.Latency.Mean, update.Latency.P99, query.Latency.Mean, query.Latency.P99}}
		})
	}
	return []Table{t}
}

// Peak sweeps offered load against each system with the open-loop driver:
// the closed-loop saturation throughput calibrates a set of target rates
// (fractions of peak), and each rate reports delivered tps, service
// latency, and queueing delay separately — the latency-vs-offered-load
// curve a closed-loop harness structurally cannot produce (arrivals keep
// coming when the system slows down, so overload shows up as queueing).
func Peak(sc Scale, fracs []float64) []Table {
	t := Table{Title: "Peak: open-loop latency vs offered load (Poisson arrivals)",
		Cols: []string{"system", "frac", "rate", "tps", "svc-p50", "svc-p99", "queue-p50", "queue-p99"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	ps := paperSystems(sc.Nodes, 3)
	for _, build := range []builder{ps[1], ps[3]} { // quorum, etcd
		t.measure(nil, build, loadYCSB(cfg), func(sys system.System) [][]any {
			peak := runYCSB(sys, cfg, sc, 0).TPS
			if peak <= 0 {
				return [][]any{{"no-peak"}}
			}
			var rows [][]any
			for _, frac := range fracs {
				r := runYCSBWith(sys, cfg, openLoop(sc, 0, peak*frac))
				rows = append(rows, []any{frac, r.TargetRate, r.TPS,
					r.Latency.P50, r.Latency.P99, r.QueueDelay.P50, r.QueueDelay.P99})
			}
			return rows
		})
	}
	return []Table{t}
}

// Fig6 reproduces "Throughput of the skewed Smallbank workload": fabric,
// quorum, and tidb under θ=1 account selection. etcd is excluded, as in
// the paper, because it lacks general transactions.
func Fig6(sc Scale) []Table {
	t := Table{Title: "Fig 6: Smallbank throughput, zipfian θ=1", Cols: []string{"system", "tps", "abort%"}}
	cfg := smallbank.Config{Accounts: sc.Accounts, Theta: 1}
	for _, build := range paperSystems(sc.Nodes, 3)[:3] {
		t.measure(nil, build, loadSmallbank(cfg), func(sys system.System) [][]any {
			r := runSmallbank(sys, cfg, sc)
			return [][]any{{r.TPS, r.AbortRate()}}
		})
	}
	return []Table{t}
}
