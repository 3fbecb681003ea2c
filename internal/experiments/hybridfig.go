package experiments

import (
	"dichotomy/internal/hybrid"
	"dichotomy/internal/system"
	"dichotomy/internal/workload/ycsb"
)

// Fig15 reproduces the hybrid-systems framework: the predicted throughput
// class for each of the six published hybrids, validated two ways —
// against their publicly reported numbers, and against the two runnable
// mini-prototypes in internal/hybrid, which occupy the framework's
// opposite corners (storage+CFT-shared-log vs txn+BFT-consensus).
func Fig15(sc Scale) []Table {
	catalog := Table{Title: "Fig 15: hybrid framework — predictions vs reported numbers",
		Cols: []string{"system", "replication", "failure", "approach", "predicted", "reported-tps"}}
	for _, e := range hybrid.RankByPrediction(hybrid.Catalog()) {
		catalog.Rows = append(catalog.Rows, []any{e.Design.Name,
			e.Design.Replication.String(),
			e.Design.Failure.String(),
			e.Design.Approach.String(),
			hybrid.Predict(e.Design).String(),
			e.ReportedTPS})
	}

	measured := Table{Title: "Fig 15 validation: measured mini-prototypes",
		Cols: []string{"prototype", "predicted", "measured-tps"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100}
	for _, p := range []struct {
		build  builder
		design hybrid.Design
	}{
		{newVeritas, hybrid.Design{Replication: hybrid.StorageBased, Failure: hybrid.CFT, Approach: hybrid.SharedLog}},
		{newBigchain, hybrid.Design{Replication: hybrid.TxnBased, Failure: hybrid.BFT, Approach: hybrid.Consensus}},
	} {
		measured.measure([]any{hybrid.Predict(p.design).String()}, p.build, loadYCSB(cfg), func(sys system.System) [][]any {
			return [][]any{{runYCSB(sys, cfg, sc, 0).TPS}}
		})
	}
	return []Table{catalog, measured}
}
