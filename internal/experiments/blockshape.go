package experiments

import (
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/workload/ycsb"
)

// ShapeAxes are BlockShape's sweep axes.
type ShapeAxes struct {
	Sizes, Workers, Depths []int
}

// BlockShape sweeps the block-processing pipeline's shape axes on Fabric
// under YCSB updates: block size × validation workers × pipeline depth.
// It is the experiment the shared internal/pipeline refactor exists for —
// the paper identifies serial validation (endorsement signature checks,
// Fig 8) as Fabric's commit-path bottleneck, and this sweep measures how
// much of it parallel intra-block validation and cross-block pipelining
// claw back, and how block size trades against both. workers=1 ×
// depth=1 is the paper-faithful serial baseline; the separation from it
// needs parallel hardware (GOMAXPROCS > 1), like the state-layer sweep.
func BlockShape(sc Scale, ax ShapeAxes) []Table {
	t := Table{Title: "BlockShape: Fabric YCSB throughput vs block size × validation workers × pipeline depth",
		Cols: []string{"system", "blocksize", "workers", "depth", "tps", "p50", "p99", "abort%"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100}
	for _, bs := range ax.Sizes {
		for _, workers := range ax.Workers {
			for _, depth := range ax.Depths {
				build := func() (system.System, error) {
					return newFabric(fabric.Config{Peers: sc.Nodes, BlockSize: bs,
						ValidationWorkers: workers, PipelineDepth: depth})
				}
				t.measure([]any{bs, workers, depth}, build, loadYCSB(cfg), func(sys system.System) [][]any {
					r := runYCSB(sys, cfg, sc, 0)
					return [][]any{{r.TPS, r.Latency.P50, r.Latency.P99, r.AbortRate()}}
				})
			}
		}
	}
	return []Table{t}
}
