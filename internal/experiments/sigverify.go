package experiments

import (
	"fmt"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/workload/ycsb"
)

// SigVerify sweeps the endorsement-verification mode on Fabric under YCSB
// updates: serial per-signature checks vs amortized batch verification
// (verified-signature cache + per-batch accounting) vs aggregate
// endorsements (one threshold check per tx). The paper attributes ~42% of
// Fabric block-validation latency to signature verification; this sweep
// measures how much of it each mode removes, and attributes the crypto
// cost per committed transaction through the cryptoutil counters:
// vops/tx (serial curve checks), bops/tx (batch passes), aops/tx
// (threshold checks), and the verified-signature cache hit rate.
func SigVerify(sc Scale, modes []string) []Table {
	t := Table{Title: "SigVerify: Fabric validate-stage verification mode (serial vs batch vs aggregate)",
		Cols: []string{"system", "mode", "workers", "tps", "p50", "p99", "vops/tx", "bops/tx", "aops/tx", "hit%"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100}
	const workers = 4
	for _, mode := range modes {
		build := func() (system.System, error) {
			fcfg := fabric.Config{Peers: sc.Nodes, ValidationWorkers: workers}
			switch mode {
			case "serial":
			case "batch":
				fcfg.BatchVerify = true
			case "aggregate":
				fcfg.AggregateEndorsements = true
			default:
				return nil, fmt.Errorf("unknown verification mode %q", mode)
			}
			return newFabric(fcfg)
		}
		t.measure([]any{mode, workers}, build, loadYCSB(cfg), func(sys system.System) [][]any {
			cryptoutil.ResetSigCache()
			v0, b0, a0 := cryptoutil.VerifyOps(), cryptoutil.BatchVerifyOps(), cryptoutil.AggregateVerifyOps()
			h0, m0 := cryptoutil.SigCacheStats()
			r := runYCSB(sys, cfg, sc, workers)
			v1, b1, a1 := cryptoutil.VerifyOps(), cryptoutil.BatchVerifyOps(), cryptoutil.AggregateVerifyOps()
			h1, m1 := cryptoutil.SigCacheStats()

			committed := max(r.Committed, 1)
			perTx := func(delta uint64) float64 { return float64(delta) / float64(committed) }
			return [][]any{{r.TPS, r.Latency.P50, r.Latency.P99,
				perTx(v1 - v0), perTx(b1 - b0), perTx(a1 - a0), percent(h1-h0, m1-m0)}}
		})
	}
	return []Table{t}
}

// percent returns hits as a percentage of hits+misses, 0 for neither.
func percent(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
