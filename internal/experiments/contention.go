package experiments

import (
	"io"

	"dichotomy/internal/system"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/ycsb"
)

// Contention sweeps closed-loop worker counts per system under a mildly
// skewed single-record update workload. Before the shared striped state
// layer (internal/state), every system serialized engine access plus its
// version map behind one global mutex, so this sweep measured lock
// convoys; with striping it measures each design's actual concurrency
// ceiling. p99 rising much faster than throughput at high worker counts
// is the convoy signature to watch for.
func Contention(w io.Writer, sc Scale, workerCounts []int) {
	Header(w, "Contention: throughput & tail latency vs closed-loop workers (modify, θ=0.6)")
	Row(w, "system", "workers", "tps", "p50", "p99", "abort%")
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 16}
	}
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100, Theta: 0.6}
	builds := []builder{
		func() (system.System, error) { return BuildFabric(sc.Nodes, client) },
		func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
		func() (system.System, error) { return BuildTiDB(3, 3), nil },
		func() (system.System, error) { return BuildEtcd(3), nil },
		func() (system.System, error) { return BuildVeritas(3) },
		func() (system.System, error) { return BuildBigchain(4) },
	}
	for _, build := range builds {
		for _, workers := range workerCounts {
			ycsbPoint(w, build, cfg, client, []any{workers}, func(sys system.System) {
				r := RunYCSB(sys, cfg, sc, workers, client)
				Row(w, sys.Name(), workers, r.TPS, r.Latency.P50, r.Latency.P99, r.AbortRate())
			})
		}
	}
}
