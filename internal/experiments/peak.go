package experiments

import (
	"io"

	"dichotomy/internal/bench"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/system"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/smallbank"
	"dichotomy/internal/workload/ycsb"
)

// fig4Systems builds the five systems of the peak-performance comparison.
func fig4Systems(sc Scale, client *cryptoutil.Signer) []builder {
	return []builder{
		func() (system.System, error) { return BuildFabric(sc.Nodes, client) },
		func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
		func() (system.System, error) { return BuildTiDB(3, 3), nil },
		func() (system.System, error) { return BuildEtcd(3), nil },
		func() (system.System, error) { return NewTiKV(BuildTiDB(3, 3)), nil },
	}
}

// Fig4 reproduces "Throughput of YCSB workload": peak tps for fabric,
// quorum, tidb, etcd, and standalone tikv under uniform update-only and
// query-only workloads.
func Fig4(w io.Writer, sc Scale) {
	Header(w, "Fig 4: YCSB peak throughput (update / query), uniform, 1KB records")
	Row(w, "system", "update-tps", "query-tps")
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}

	for _, build := range fig4Systems(sc, client) {
		ycsbPoint(w, build, cfg, client, nil, func(sys system.System) {
			update := RunYCSB(sys, cfg, sc, 0, client)
			queryCfg := cfg
			queryCfg.ReadFraction = 1
			query := RunYCSB(sys, queryCfg, sc, 0, client)
			Row(w, sys.Name(), update.TPS, query.TPS)
		})
	}
}

// Fig5 reproduces "Latency of YCSB workload": unsaturated latency (single
// closed-loop client) for the same systems and workloads, with the P99
// tail alongside the paper's means.
func Fig5(w io.Writer, sc Scale) {
	Header(w, "Fig 5: YCSB latency, unsaturated (update / query)")
	Row(w, "system", "update-mean", "update-p99", "query-mean", "query-p99")
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	for _, build := range fig4Systems(sc, client) {
		ycsbPoint(w, build, cfg, client, nil, func(sys system.System) {
			update := RunYCSB(sys, cfg, sc, 1, client)
			queryCfg := cfg
			queryCfg.ReadFraction = 1
			query := RunYCSB(sys, queryCfg, sc, 1, client)
			Row(w, sys.Name(), update.Latency.Mean, update.Latency.P99,
				query.Latency.Mean, query.Latency.P99)
		})
	}
}

// Peak sweeps offered load against each system with the open-loop driver:
// the closed-loop saturation throughput calibrates a set of target rates
// (fractions of peak), and each rate reports delivered tps, service
// latency, and queueing delay separately — the latency-vs-offered-load
// curve a closed-loop harness structurally cannot produce (arrivals keep
// coming when the system slows down, so overload shows up as queueing).
func Peak(w io.Writer, sc Scale, fracs []float64) {
	Header(w, "Peak: open-loop latency vs offered load (Poisson arrivals)")
	Row(w, "system", "frac", "rate", "tps", "svc-p50", "svc-p99", "queue-p50", "queue-p99")
	if len(fracs) == 0 {
		fracs = []float64{0.5, 0.9, 1.2}
	}
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 1000}
	builds := []builder{
		func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
		func() (system.System, error) { return BuildEtcd(3), nil },
	}
	for _, build := range builds {
		sys, err := build()
		if err != nil {
			Row(w, "-", "build-error", err.Error())
			continue
		}
		if err := PreloadYCSB(sys, cfg, client); err != nil {
			Row(w, sys.Name(), "preload-error", err.Error())
			sys.Close()
			continue
		}
		peak := RunYCSB(sys, cfg, sc, 0, client).TPS
		if peak <= 0 {
			Row(w, sys.Name(), "no-peak")
			sys.Close()
			continue
		}
		for _, frac := range fracs {
			rate := peak * frac
			r := RunYCSBOpenLoop(sys, cfg, sc, 0, rate, client)
			Row(w, sys.Name(), frac, rate, r.TPS,
				r.Latency.P50, r.Latency.P99,
				r.QueueDelay.P50, r.QueueDelay.P99)
		}
		sys.Close()
	}
}

// RunSmallbank drives the Smallbank mix against sys.
func RunSmallbank(sys system.System, cfg smallbank.Config, sc Scale, client *cryptoutil.Signer) bench.Report {
	sources := make([]bench.TxSource, sc.Workers)
	for i := range sources {
		c := cfg
		c.Seed = int64(i + 1)
		gen := smallbank.NewGenerator(c, client)
		sources[i] = bench.FuncSource(gen.Next)
	}
	return bench.Run(sys, sources, BenchOptions(sc, sc.Workers))
}

// Fig6 reproduces "Throughput of the skewed Smallbank workload": fabric,
// quorum, and tidb under θ=1 account selection. etcd is excluded, as in
// the paper, because it lacks general transactions.
func Fig6(w io.Writer, sc Scale) {
	Header(w, "Fig 6: Smallbank throughput, zipfian θ=1")
	Row(w, "system", "tps", "abort%")
	client := Client()
	sbCfg := smallbank.Config{Accounts: sc.Accounts, Theta: 1}

	builds := []builder{
		func() (system.System, error) { return BuildFabric(sc.Nodes, client) },
		func() (system.System, error) { return BuildQuorum(sc.Nodes, quorum.Raft, client) },
		func() (system.System, error) { return BuildTiDB(3, 3), nil },
	}
	for _, build := range builds {
		sys, err := build()
		if err != nil {
			Row(w, "-", "build-error", err.Error())
			continue
		}
		load, err := sbCfg.LoadTxs(client)
		if err == nil {
			err = bench.Preload(sys, load, 16)
		}
		if err != nil {
			Row(w, sys.Name(), "preload-error", err.Error())
			sys.Close()
			continue
		}
		r := RunSmallbank(sys, sbCfg, sc, client)
		Row(w, sys.Name(), r.TPS, r.AbortRate())
		sys.Close()
	}
}
