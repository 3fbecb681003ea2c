package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/metrics"
	"dichotomy/internal/system"
	"dichotomy/internal/system/quorum"
	"dichotomy/internal/workload/smallbank"
)

// AuthReads measures the proof-serving light-client read layer under
// write pressure: Smallbank writers commit through Quorum while N
// verifying readers call VerifiedGet on node 0's proof server and check
// every proof (mpt.VerifyProof) and root signature locally — the full
// light-client verification loop. The sweep crosses reader count, proof
// cache budget, and root publish interval (the lag knob): proof p99 and
// cache hit rate show what the cache buys, staleness shows what lag
// costs, and writer tps shows the interference the off-commit-path
// design is supposed to avoid.
func AuthReads(sc Scale) []Table {
	t := Table{Title: "AuthReads: verified reads vs Smallbank writes (readers × cache × root lag)",
		Cols: []string{"system", "readers", "cache", "lag", "write-tps", "proof-p50", "proof-p99", "hit%", "stale-mean", "stale-max", "reads"}}
	sbCfg := smallbank.Config{Accounts: sc.Accounts, Theta: 1}
	for _, pt := range []struct{ readers, cache, lag int }{
		{4, 4096, 1},
		{16, 4096, 1},
		{16, 64, 1}, // cache far below the key space: mostly trie walks
		{16, 4096, 4},
	} {
		build := func() (system.System, error) {
			return newQuorum(quorum.Config{Nodes: sc.Nodes, RootPublishEvery: pt.lag, ProofCacheSize: pt.cache})
		}
		t.measure([]any{pt.readers, pt.cache, pt.lag}, build, loadSmallbank(sbCfg), func(sys system.System) [][]any {
			nw := sys.(*quorum.Network)
			ps := nw.Proofs(0)
			pub := nw.Auth(0).Public()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			hists := make([]*metrics.LocalHistogram, pt.readers)
			var staleSum, staleMax, reads atomic.Uint64
			base := ps.Stats()
			for g := 0; g < pt.readers; g++ {
				hists[g] = new(metrics.LocalHistogram)
				wg.Add(1)
				go func(g int, h *metrics.LocalHistogram) {
					defer wg.Done()
					i := g
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Pace the reader: a light client polls, it does not
						// busy-spin — and an unthrottled loop would starve the
						// writers' consensus goroutines of CPU, measuring
						// scheduler contention instead of read-path cost.
						//lint:allow sleepyloop fixed read pacing, not a retry loop
						time.Sleep(200 * time.Microsecond)
						key := "chk:" + smallbank.Account(i%sbCfg.Accounts)
						i += pt.readers
						start := time.Now()
						got, err := ps.VerifiedGet(key)
						if err != nil {
							continue // no root yet, or a checking account not preloaded
						}
						if mpt.VerifyProof(got.Root.Root, []byte(key), got.Proof) != nil {
							continue // never expected; counted out of the latency series
						}
						if got.Root.Verify(pub) != nil {
							continue
						}
						h.Record(time.Since(start))
						reads.Add(1)
						staleSum.Add(got.StaleBlocks)
						for {
							cur := staleMax.Load()
							if got.StaleBlocks <= cur || staleMax.CompareAndSwap(cur, got.StaleBlocks) {
								break
							}
						}
					}
				}(g, hists[g])
			}

			r := runSmallbank(nw, sbCfg, sc)
			close(stop)
			wg.Wait()
			st := ps.Stats()

			proofs := hists[0]
			for _, h := range hists[1:] {
				proofs.Merge(h)
			}
			staleMean := 0.0
			if n := reads.Load(); n > 0 {
				staleMean = float64(staleSum.Load()) / float64(n)
			}
			return [][]any{{r.TPS, proofs.Percentile(50), proofs.Percentile(99),
				percent(st.Hits-base.Hits, st.Misses-base.Misses), staleMean, staleMax.Load(), reads.Load()}}
		})
	}
	return []Table{t}
}
