package experiments

import (
	"time"

	"dichotomy/internal/hybrid"
	"dichotomy/internal/ingress"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/ycsb"
)

// fronted is a system wearing the ingress front door: it exposes the
// mempool's counters and its consensus transport's drop count, so the
// experiment can attribute every rejection to the layer that made it.
type fronted interface {
	system.System
	IngressStats() (ingress.Stats, bool)
	ConsensusDropped() uint64
}

// Ingress reproduces the front-door overload story the paper's
// closed-loop harness cannot show: each mempool-fed system (Fabric,
// Quorum, Veritas) is calibrated to its closed-loop peak, then driven
// open-loop at growing multiples of that peak. Below peak the door is
// invisible (no sheds, small adaptive blocks); past peak the pool fills,
// blocks grow toward MaxBlock, consensus backpressure throttles the
// builder, and the overflow sheds at admission as typed retryable errors
// — delivered tps plateaus instead of the system wedging.
func Ingress(sc Scale, mults []float64) []Table {
	t := Table{Title: "Ingress: open-loop overload through the mempool front door",
		Cols: []string{"system", "mult", "rate", "tps", "svc-p99", "queue-p99", "door-p99",
			"shed", "dedup", "blocks", "avg-blk", "throttle", "drops"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	// A small pool keeps overload visible at CI scale: past peak it
	// fills within milliseconds and the door starts shedding.
	door := func() *ingress.Config {
		return &ingress.Config{Capacity: 128, MaxBlock: 64, BuildInterval: time.Millisecond}
	}
	builds := []builder{
		func() (system.System, error) { return newFabric(fabric.Config{Peers: sc.Nodes, Ingress: door()}) },
		func() (system.System, error) { return newQuorum(quorum.Config{Nodes: sc.Nodes, Ingress: door()}) },
		func() (system.System, error) {
			return hybrid.NewVeritas(hybrid.VeritasConfig{Verifiers: 3, Ingress: door()})
		},
	}
	for _, build := range builds {
		t.measure(nil, build, loadYCSB(cfg), func(s system.System) [][]any {
			sys := s.(fronted)
			peak := runYCSB(sys, cfg, sc, 0).TPS
			if peak <= 0 {
				return [][]any{{"no-peak"}}
			}
			prev, _ := sys.IngressStats()
			prevDrops := sys.ConsensusDropped()
			var rows [][]any
			for _, mult := range mults {
				// Dispatch concurrency far beyond what the system holds in
				// flight, so the arrival schedule — not the pool of waiting
				// clients — is the offered load.
				opt := openLoop(sc, 16*sc.Workers, mult*peak)
				opt.MaxInFlight = 4 * opt.Workers
				r := runYCSBWith(sys, cfg, opt)
				st, _ := sys.IngressStats()
				drops := sys.ConsensusDropped()
				blocks := st.Blocks - prev.Blocks
				var avgBlk float64
				if blocks > 0 {
					avgBlk = float64(st.BlockTxs-prev.BlockTxs) / float64(blocks)
				}
				rows = append(rows, []any{mult, r.TargetRate, r.TPS, r.Latency.P99,
					r.QueueDelay.P99, st.QueueDelayP99,
					st.Shed - prev.Shed, st.Deduped - prev.Deduped, blocks, avgBlk,
					st.Throttled - prev.Throttled, drops - prevDrops})
				prev, prevDrops = st, drops
			}
			return rows
		})
	}
	return []Table{t}
}
