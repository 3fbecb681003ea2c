package experiments

import (
	"time"

	"dichotomy/internal/system"
	"dichotomy/internal/system/ahl"
	"dichotomy/internal/system/spanner"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/workload/ycsb"
)

// Fig14 reproduces "Throughput of the skewed workload" across sharded
// systems: TiDB without full replication, the Spanner-like database, and
// AHL with fixed vs periodically reconfigured shards. Shards hold 3 nodes
// each; the workload is zipfian θ=1 with two records per transaction.
func Fig14(sc Scale, shardCounts []int) []Table {
	t := Table{Title: "Fig 14: sharded throughput, zipfian θ=1, 2 ops/txn, 3-node shards",
		Cols: []string{"system", "shards", "nodes", "tps"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000, Theta: 1, OpsPerTxn: 2}
	for _, shards := range shardCounts {
		builds := []builder{
			func() (system.System, error) {
				return tidb.New(tidb.Config{
					Servers: shards, StorageNodes: shards * 3,
					Regions: shards, ReplicationFactor: 3,
				}), nil
			},
			func() (system.System, error) {
				return spanner.New(spanner.Config{Shards: shards, NodesPerShard: 3}), nil
			},
			func() (system.System, error) {
				return ahl.New(ahl.Config{Shards: shards, NodesPerShard: 4}), nil
			},
			func() (system.System, error) {
				return ahl.New(ahl.Config{
					Shards: shards, NodesPerShard: 4, Reconfigure: true,
					ReconfigureEvery: sc.Duration / 3,
					ReconfigurePause: sc.Duration / 10,
				}), nil
			},
		}
		for _, build := range builds {
			t.measure([]any{shards, shards * 3}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				return [][]any{{runYCSB(sys, cfg, sc, 0).TPS}}
			})
			//lint:allow sleepyloop settle between cluster teardown and the next shard count
			time.Sleep(50 * time.Millisecond)
		}
	}
	return []Table{t}
}
