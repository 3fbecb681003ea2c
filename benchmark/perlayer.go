package main

import (
	"fmt"
	"slices"
	"time"

	"dichotomy/internal/metrics"
)

// perLayer fills every per-layer metric of a traced run: the harness (H),
// the Tx.Trace means of the traced phase (T), the deltas of the systems'
// own accessors over the two paced phases (S), and the client and runtime
// figures.
func perLayer(m map[string]metric, w workload, b *built, p params, spans *spanLog, plain, traced pacedResult, c0, c1 counters) error {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	both := summarize(append(append([]record(nil), plain.recs...), traced.recs...))
	committedN := float64(max(both.committed, 1))

	// S: accessor deltas over both paced phases.
	hits, misses := c1.sigHits-c0.sigHits, c1.sigMisses-c0.sigMisses
	set("cryptoutil.sigcache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	set("ingress.queue_p99_ms", ms(c1.ingress.QueueDelayP99), "ms")
	set("ingress.depth", float64(traced.loaded.ingress.Depth), "count")
	set("ingress.avg_block_txs", float64(c1.ingress.BlockTxs-c0.ingress.BlockTxs)/float64(max(c1.ingress.Blocks-c0.ingress.Blocks, 1)), "count")
	set("ingress.shed", float64(c1.ingress.Shed-c0.ingress.Shed), "count")
	set("ingress.deduped", float64(c1.ingress.Deduped), "count")
	set("ingress.throttled", float64(c1.ingress.Throttled-c0.ingress.Throttled), "count")
	set("consensus.dropped", float64(c1.dropped-c0.dropped), "count")
	set("authstate.root_lag_blocks", float64(traced.loaded.rootLagBlocks), "count")
	set("lsm.disk_bytes_per_tx", float64(max(c1.diskBytes-c0.diskBytes, 0))/committedN, "B")
	set("mvcc.conflict_ratio", float64(c1.wwConflicts-c0.wwConflicts)/float64(max(both.attempted, 1)), "ratio")
	var (
		replayed float64
		recoverS []float64
	)
	for _, phase := range []pacedResult{plain, traced} {
		for i, st := range phase.recoveries {
			replayed += float64(st.ReplayedBlocks)
			recoverS = append(recoverS, phase.recoverDur[i].Seconds())
		}
	}
	set("recovery.replayed_blocks", replayed, "count")
	set("recovery.recover_s", median(recoverS), "s")

	// T: mean of each Tx.Trace phase over the traced phase's commits.
	sums := map[string]time.Duration{}
	var span, covered time.Duration
	n := 0
	for i := range traced.recs {
		r := &traced.recs[i]
		if r.out != committed {
			continue
		}
		n++
		span += r.end.Sub(r.start)
		for name, d := range r.phases {
			sums[name] += d
		}
		for _, name := range w.topPhases {
			covered += r.phases[name]
		}
	}
	mean := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(max(n, 1)) }
	for out, names := range tracePhases {
		var d time.Duration
		for _, name := range names {
			d += sums[name]
		}
		set(out, mean(d), "us")
	}
	set("trace.unattributed_us", mean(max(span-covered, 0)), "us")

	// Client and runtime.
	ts := summarize(traced.recs)
	all := append(append([]time.Duration(nil), ts.updateLat...), ts.readLat...)
	slices.Sort(all)
	set("client.p50_ms", median(slicePercentiles(traced, 50)), "ms")
	set("client.p95_ms", median(slicePercentiles(traced, 95)), "ms")
	set("client.p99_ms", ms(percentile(all, 99)), "ms")
	set("client.read_p50_ms", ms(percentile(ts.readLat, 50)), "ms")
	set("client.read_p95_ms", ms(percentile(ts.readLat, 95)), "ms")
	set("client.abort_pct", 100*float64(both.aborted)/float64(max(both.attempted, 1)), "%")
	set("client.late_max_ms", ms(max(plain.lateMax, traced.lateMax)), "ms")
	set("client.retries", float64(both.retries), "count")
	set("client.pool_spill", float64(b.pool.spill), "count")
	set("runtime.gc_cycles", float64(traced.after.gcCycles-plain.before.gcCycles), "count")
	set("runtime.gc_pause_ms", ms(traced.after.gcPause-plain.before.gcPause), "ms")
	set("runtime.peak_heap_mb", float64(max(plain.after.heapInuse, traced.after.heapInuse))/(1<<20), "MiB")
	cpuPlain := cpuPerTx(plain)
	set("runtime.cpu_us_per_tx", cpuPlain, "us")
	set("trace.overhead_pct", 100*(cpuPerTx(traced)-cpuPlain)/cpuPlain, "%")

	// H: the harness, with the system closed so allocation counts are
	// the harness's own.
	b.tgt.sys.Close()
	h, err := newHarness(w, b, p, spans, m)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if err := h.run(); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	for name, v := range m {
		spans.counter(name, v.Value)
	}
	return nil
}

// tracePhases maps each reported trace metric to the Tx.Trace phase
// names it sums.
var tracePhases = map[string][]string{
	"trace.proposal_us":  {metrics.PhaseProposal},
	"trace.order_us":     {metrics.PhaseOrder},
	"trace.validate_us":  {metrics.PhaseValidate},
	"trace.commit_us":    {metrics.PhaseCommit},
	"trace.consensus_us": {metrics.PhaseConsensus},
	"trace.auth_us":      {metrics.PhaseAuth},
	"trace.execute_us":   {metrics.PhaseExecute, metrics.PhaseSimulate},
	"trace.storage_us":   {metrics.PhaseStorage},
	"trace.sql_us":       {metrics.PhaseSQLParse, metrics.PhaseSQLPlan},
}

// cpuPerTx is process CPU per committed request over a paced phase, µs.
func cpuPerTx(p pacedResult) float64 {
	n := p.after.committed - p.before.committed
	return float64((p.after.cpu - p.before.cpu).Microseconds()) / float64(max(n, 1))
}
