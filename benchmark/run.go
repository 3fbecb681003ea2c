package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"dichotomy/internal/cryptoutil"
)

// params sizes one run. The phase lengths are shares of the measured
// time so that -seconds scales the whole run and parent and change
// always measure for the same length.
type params struct {
	// seconds is the measured time: 4/9 paced phase, 4/9 sat phase, and
	// 1/9 warm-up (discarded), half of it before each phase; the traced
	// run spends the two 4/9 shares on an untraced and a traced paced
	// phase instead.
	seconds float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// probes is how many one-at-a-time requests tell the builds apart.
	probes int
	// harnessN and harnessReps size the traced run's fixed-work harness.
	harnessN    int
	harnessReps int
	// scratch is where data directories and trace files go.
	scratch string
}

const (
	satWindows = 5
	// pacedWindows is how many equal slices the paced phase's latencies
	// are read in; the gated percentiles are medians over the slices, so
	// a disturbance that spoils three slices still leaves the metric
	// alone. A slice is half a cycle of the crash workload.
	pacedWindows = 8
	// clientsPerWindow × W signing identities rotate over the stream, so
	// transactions closer than that never share an ID. The issue asks
	// for 4×W; a host stall lets the open loop burst past 4×W in flight
	// (seen once: two deduplicated submissions), so the margin is 16×W.
	clientsPerWindow = 16
	// electionSettle covers the longest first election timeout (60 ms)
	// with room for a host stall.
	electionSettle = 200 * time.Millisecond
	// poolMargin is the head-room of the pre-signed pool over the seed
	// commit's saturation throughput.
	poolMargin = 1.5
)

func (p params) warm() time.Duration  { return time.Duration(p.seconds / 9 * float64(time.Second)) }
func (p params) share() time.Duration { return time.Duration(p.seconds * 4 / 9 * float64(time.Second)) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints (its last stdout line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// built is one completed set-up.
type built struct {
	tgt     *target
	pool    *pool
	clients []*cryptoutil.Signer
	// probe is the idle-latency probe's requests (they wrote state, so
	// the correctness gate must know them) and idle its verdict.
	probe []record
	idle  time.Duration
}

// setup builds the system, preloads it through Submit, and generates and
// signs the run's transactions. Everything the measured phases need is
// made here, so work moved into set-up shows in setup_s.
func setup(w workload, seed int64, p params, poolSize int) (*built, error) {
	clients, err := newClients(clientsPerWindow * w.window)
	if err != nil {
		return nil, err
	}
	loader, err := cryptoutil.NewSigner("loader")
	if err != nil {
		return nil, err
	}
	spare, err := cryptoutil.NewSigner("loader-spare")
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(p.scratch, "data-")
	if err != nil {
		return nil, err
	}
	tgt, err := w.build(dataDir)
	if err != nil {
		_ = os.RemoveAll(dataDir)
		return nil, fmt.Errorf("build: %w", err)
	}
	tgt.dataDir = dataDir
	// Let every raft group elect its leader on an idle process before any
	// load arrives: loading during the elections left 21 of 36 Fabric
	// builds with a high idle latency, waiting first 9 of 30.
	time.Sleep(electionSettle)
	if tgt.register != nil {
		tgt.register(loader.Name(), loader.Public())
		tgt.register(spare.Name(), spare.Public())
		for _, c := range clients {
			tgt.register(c.Name(), c.Public())
		}
	}
	load, err := w.preload(loader)
	if err == nil {
		err = runPreload(tgt.sys, load, spare)
	}
	var pl *pool
	if err == nil {
		pl, err = newPool(w, seed, clients, poolSize)
	}
	b := &built{tgt: tgt, pool: pl, clients: clients}
	if err == nil {
		b.probe, b.idle, err = probeIdle(tgt.sys, pl, p.probes)
	}
	if err != nil {
		tgt.close()
		return nil, err
	}
	return b, nil
}

// runWorkload is one run of one workload: set-up (several times), the
// phases, the correctness gate, and the metrics of the requested kind.
func runWorkload(w workload, seed int64, p params, traced bool) (result, *detail, error) {
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return result{}, nil, err
	}
	warm, share := p.warm(), p.share()
	poolSize := p.probes + int(w.rate*(warm/2+share).Seconds()+w.satTPS*poolMargin*(warm/2+share).Seconds())
	if traced {
		poolSize = p.probes + int(w.rate*(warm/2+2*share).Seconds()) + p.harnessN
	}

	var (
		b              *built
		setupS, idleMs []float64
	)
	// Every set-up is timed; the run then uses the build with the lowest
	// idle latency. Which replica leads each raft group is decided by
	// election timeouts a few milliseconds apart, and on Fabric the
	// outcome shifts every request's latency by one heartbeat (README,
	// Findings); builds of one binary differ in that and nothing else, so
	// the choice removes the coin toss without favouring any code.
	for i := 0; i < p.setups; i++ {
		start := time.Now()
		nb, err := setup(w, seed, p, poolSize)
		if err != nil {
			if b != nil {
				b.tgt.close()
			}
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		idleMs = append(idleMs, ms(nb.idle))
		if b == nil || nb.idle < b.idle {
			b, nb = nb, b
		}
		if nb != nil {
			nb.tgt.close()
		}
	}
	defer b.tgt.close()

	d := &detail{workload: w.name, seed: seed, setupS: setupS, idleMs: idleMs}
	res := result{Metrics: map[string]metric{}}
	// The paced phase goes first. Saturating two CPUs starves the raft
	// tickers, and an election that moves a leader changes the latency of
	// everything after it (README, Findings); measured right after the
	// quiet set-up, the paced phase sees the system as it was built.
	warmup, err := runPaced(b.tgt, b.pool, w.rate, warm/2, 0, false)
	if err != nil {
		return res, d, err
	}
	for i := range warmup.recs {
		warmup.recs[i].phase = phaseWarm
	}
	c0 := b.tgt.counters()
	paced, err := runPaced(b.tgt, b.pool, w.rate, share, w.crashCycles, false)
	if err != nil {
		return res, d, err
	}
	recs := append(append(b.probe, warmup.recs...), paced.recs...)
	d.lateMaxMs = ms(paced.lateMax)

	// The second share: the sat phase, or the traced repeat of the paced
	// phase.
	var (
		sat     satResult
		spanned pacedResult
	)
	if traced {
		if spanned, err = runPaced(b.tgt, b.pool, w.rate, share, w.crashCycles, true); err != nil {
			return res, d, err
		}
		recs = append(recs, spanned.recs...)
		d.lateMaxMs = max(d.lateMaxMs, ms(spanned.lateMax))
	} else {
		if sat, err = runSat(b.tgt.sys, b.pool, w.window, warm/2, share/satWindows, satWindows); err != nil {
			return res, d, err
		}
		recs = append(recs, sat.recs...)
	}
	c1 := b.tgt.counters()

	all := summarize(recs)
	res.Attempted, res.Failed, d.firstErr = all.attempted, all.failed, all.firstErr
	if !traced {
		endToEnd(res.Metrics, d, median(setupS), sat, paced, all)
	}
	if err := b.tgt.converge(); err != nil {
		d.violation = fmt.Errorf("replicas diverge: %w", err)
	} else if err := w.verify(b.tgt, recs); err != nil {
		d.violation = fmt.Errorf("acknowledged commits: %w", err)
	}
	res.Correct = d.violation == nil

	if traced {
		// The harness closes the system, so it runs after the gate.
		spans := newSpanLog()
		spans.addRequests(spanned.recs)
		if err := perLayer(res.Metrics, w, b, p, spans, paced, spanned, c0, c1); err != nil {
			return res, d, err
		}
		d.tracePath = filepath.Join(p.scratch, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
		if err := spans.write(d.tracePath); err != nil {
			return res, d, fmt.Errorf("write trace: %w", err)
		}
	}
	d.spill = b.pool.spill
	return res, d, nil
}

// detail is what a run knows beyond its result line; main prints it to
// standard error and -selfcheck reads the window spreads from it.
type detail struct {
	workload  string
	seed      int64
	setupS    []float64
	idleMs    []float64            // each build's idle latency; the lowest was used
	windows   map[string][]float64 // per-window and per-slice values behind the medians
	lateMaxMs float64
	spill     int
	firstErr  error
	violation error
	tracePath string
}

// endToEnd fills the end-to-end metrics from an untraced run. Every
// sat-phase metric is the median of the windows, and the paced-phase
// percentile is the median over the slices of each slice's percentile.
func endToEnd(m map[string]metric, d *detail, setupS float64, sat satResult, paced pacedResult, all phaseSummary) {
	d.windows = map[string][]float64{}
	for i := 1; i < len(sat.snaps); i++ {
		a, b := sat.snaps[i-1], sat.snaps[i]
		n := float64(b.committed - a.committed)
		if n == 0 {
			n = 1 // a dead window shows as an absurd per-tx cost, not a division by zero
		}
		d.windows["tps"] = append(d.windows["tps"], n/b.at.Sub(a.at).Seconds())
		d.windows["cpu_us_per_tx"] = append(d.windows["cpu_us_per_tx"], float64((b.cpu-a.cpu).Microseconds())/n)
		d.windows["allocs_per_tx"] = append(d.windows["allocs_per_tx"], float64(b.mallocs-a.mallocs)/n)
		d.windows["alloc_kb_per_tx"] = append(d.windows["alloc_kb_per_tx"], float64(b.allocBytes-a.allocBytes)/1024/n)
	}
	// cpu_us_per_tx and p95_ms are shown with the windows but not gated:
	// their run-to-run spread on a shared two-CPU host exceeds any bound
	// the contract allows (README, "Bounds and how they were measured").
	m["setup_s"] = metric{setupS, "s"}
	m["tps"] = metric{median(d.windows["tps"]), "1/s"}
	m["allocs_per_tx"] = metric{median(d.windows["allocs_per_tx"]), "count"}
	m["alloc_kb_per_tx"] = metric{median(d.windows["alloc_kb_per_tx"]), "KiB"}

	ps := summarize(paced.recs)
	d.windows["p50_ms"], d.windows["p95_ms"] = slicePercentiles(paced, 50), slicePercentiles(paced, 95)
	m["p50_ms"] = metric{median(d.windows["p50_ms"]), "ms"}
	m["commit_pct"] = metric{100 * float64(ps.committed) / float64(max(ps.committed+ps.aborted, 1)), "%"}
	m["ok_pct"] = metric{100 * float64(all.attempted-all.failed) / float64(max(all.attempted, 1)), "%"}
}

// slicePercentiles cuts a paced phase into pacedWindows equal slices by
// due time (arrivals are evenly spaced, so by index) and reads the p-th
// percentile of committed-update latency in each, in milliseconds.
func slicePercentiles(paced pacedResult, p float64) []float64 {
	out := make([]float64, 0, pacedWindows)
	for i := 0; i < pacedWindows; i++ {
		lo, hi := i*len(paced.recs)/pacedWindows, (i+1)*len(paced.recs)/pacedWindows
		out = append(out, ms(percentile(summarize(paced.recs[lo:hi]).updateLat, p)))
	}
	return out
}

// phaseSummary tallies the measured (non-warm-up) records of a phase.
type phaseSummary struct {
	attempted, committed, aborted, failed, retries int
	updateLat, readLat                             []time.Duration // committed only, sorted
	firstErr                                       error           // of the first failed request
}

func summarize(recs []record) phaseSummary {
	var s phaseSummary
	for i := range recs {
		r := &recs[i]
		if r.phase == phaseWarm {
			continue
		}
		s.attempted++
		if r.retry {
			s.retries++
		}
		switch r.out {
		case committed:
			s.committed++
			if isRead(r.tx) {
				s.readLat = append(s.readLat, r.latency())
			} else {
				s.updateLat = append(s.updateLat, r.latency())
			}
		case aborted:
			s.aborted++
		default:
			s.failed++
			if s.firstErr == nil {
				s.firstErr = r.err
			}
		}
	}
	slices.Sort(s.updateLat)
	slices.Sort(s.readLat)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile reads the p-th percentile (nearest rank) of a sorted slice;
// an empty slice reads 0.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.5) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
