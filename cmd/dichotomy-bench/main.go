// Command dichotomy-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dichotomy-bench [-full] [-cpuprofile file] [-memprofile file] <experiment> [experiment...]
//	dichotomy-bench all
//
// Experiments: fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 table4 table5 peak contention blockshape recovery
// sigverify authreads.
//
// contention sweeps closed-loop worker counts per system and reports
// throughput with tail latency — the lock-convoy diagnostic behind the
// shared internal/state layer.
//
// blockshape sweeps Fabric's block-processing pipeline shape — block
// size × validation workers × cross-block pipeline depth — against the
// serial baseline (workers=1, depth=1), measuring what the shared
// internal/pipeline layer recovers from the paper's validation
// bottleneck.
//
// peak is the open-loop latency-under-load sweep: it calibrates each
// system's closed-loop saturation throughput, then offers Poisson
// arrivals at fractions of that peak and reports delivered tps with
// service latency and queueing delay separated.
//
// recovery sweeps checkpoint mode (full vs delta) × interval × crash
// height on a durable Fabric network: each recovery restores the newest
// checkpoint chain at or below the crash height and replays the ledger
// tail through the live pipeline stages, reporting checkpoint bytes
// written, mean commit-path pause per checkpoint, replayed blocks,
// chain bytes read, and restore/replay time, with the recovered replica
// verified byte-identical to a healthy one.
//
// sigverify sweeps the endorsement-verification mode on Fabric's
// validate stage — serial per-signature checks vs batched verification
// with the verified-signature cache vs aggregate endorsements — and
// attributes the remaining crypto cost per committed transaction
// through the cryptoutil counters.
//
// authreads drives verifying light-client readers (VerifiedGet + local
// proof and root-signature checks) against Quorum's proof servers while
// Smallbank writers commit, sweeping reader count × proof-cache budget ×
// root publish interval, and reports writer throughput, proof latency,
// cache hit rate, and root staleness.
//
// chaos sweeps fault type × rate × system with seeded fault injection
// under open-loop load — scheduled node crashes with live recovery,
// transport drop/delay, engine write failures and fsync stalls, and
// clock-skewed commit timeouts — reporting throughput, shed/retry/error
// attribution, mean recovery time, and a zero-divergence verification of
// every replica after each row.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the whole
// run: the CPU profile covers the experiments, the allocation profile is
// taken after the last one (go tool pprof -sample_index=alloc_objects
// attributes allocation counts; GODEBUG=memprofilerate=1 records every
// allocation instead of a sample).
//
// -full approaches the paper's parameters (100K records, 10s windows,
// large sweeps); the default quick scale finishes the whole suite in
// minutes and preserves every qualitative shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dichotomy/internal/experiments"
)

// startProfiles starts the CPU profile, if one was asked for, and returns
// the function that finishes it and writes the allocation profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the profile is complete only up to the last collection
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}

func main() {
	full := flag.Bool("full", false, "run at (near-)paper scale; slow")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
	memProfile := flag.String("memprofile", "", "write an allocation profile to `file` when the run ends")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dichotomy-bench [-full] [-cpuprofile file] [-memprofile file] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: all fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 table4 table5 peak contention blockshape recovery sigverify authreads ingress chaos\n")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiments.Quick()
	var (
		fs      = []int{1, 2}
		nodes   = []int{3, 7, 11}
		grid    = []int{1, 3, 5}
		thetas  = []float64{0, 0.6, 1.0}
		ops     = []int{1, 4, 10}
		sizes   = []int{10, 100, 1000, 5000}
		shards  = []int{1, 2, 4}
		fracs   = []float64{0.5, 0.9, 1.2}
		conc    = []int{1, 4, 16}
		bsizes  = []int{50, 200}
		vwork   = []int{1, 4}
		depths  = []int{1, 2}
		ckints  = []uint64{4, 16}
		ckmodes = []string{"full", "delta"}
		crashes = []float64{0.5, 1.0}
		vmodes  = []string{"serial", "batch", "aggregate"}
		mults   = []float64{1, 2, 4}
		cfaults = []string{"crash", "net", "engine", "skew"}
		crates  = []float64{0.05}
	)
	if *full {
		sc = experiments.Full()
		fs = []int{1, 2, 3, 4, 5, 6}
		nodes = []int{3, 7, 11, 15, 19}
		grid = []int{3, 7, 11, 15, 19}
		thetas = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
		ops = []int{1, 2, 4, 6, 8, 10}
		shards = []int{1, 2, 4, 8, 16}
		fracs = []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.2}
		conc = []int{1, 4, 16, 64}
		bsizes = []int{50, 100, 500, 1000}
		vwork = []int{1, 2, 4, 8}
		depths = []int{1, 2, 4}
		ckints = []uint64{2, 8, 32, 128}
		crashes = []float64{0.25, 0.5, 0.75, 1.0}
		mults = []float64{0.5, 1, 2, 4, 8}
		crates = []float64{0.02, 0.1}
	}

	runners := map[string]func(){
		"fig4":       func() { experiments.Fig4(os.Stdout, sc) },
		"fig5":       func() { experiments.Fig5(os.Stdout, sc) },
		"fig6":       func() { experiments.Fig6(os.Stdout, sc) },
		"fig7":       func() { experiments.Fig7(os.Stdout, sc, fs) },
		"fig8":       func() { experiments.Fig8(os.Stdout, sc) },
		"fig9":       func() { experiments.Fig9(os.Stdout, sc, thetas) },
		"fig10":      func() { experiments.Fig10(os.Stdout, sc, ops) },
		"fig11":      func() { experiments.Fig11(os.Stdout, sc, sizes) },
		"fig12":      func() { experiments.Fig12(os.Stdout, sc, sizes) },
		"fig13":      func() { experiments.Fig13(os.Stdout, sc, sizes) },
		"fig14":      func() { experiments.Fig14(os.Stdout, sc, shards) },
		"fig15":      func() { experiments.Fig15(os.Stdout, sc) },
		"table4":     func() { experiments.Table4(os.Stdout, sc, nodes) },
		"table5":     func() { experiments.Table5(os.Stdout, sc, grid) },
		"peak":       func() { experiments.Peak(os.Stdout, sc, fracs) },
		"contention": func() { experiments.Contention(os.Stdout, sc, conc) },
		"blockshape": func() { experiments.BlockShape(os.Stdout, sc, bsizes, vwork, depths) },
		"recovery":   func() { experiments.Recovery(os.Stdout, sc, ckmodes, ckints, crashes) },
		"sigverify":  func() { experiments.SigVerify(os.Stdout, sc, vmodes) },
		"authreads":  func() { experiments.AuthReads(os.Stdout, sc) },
		"ingress":    func() { experiments.Ingress(os.Stdout, sc, mults) },
		"chaos":      func() { experiments.Chaos(os.Stdout, sc, cfaults, crates) },
	}
	order := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "table4", "table5",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "peak",
		"contention", "blockshape", "recovery", "sigverify", "authreads", "ingress",
		"chaos"}

	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = order
	}
	for _, name := range args {
		if _, ok := runners[name]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dichotomy-bench: profile: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	for _, name := range args {
		runners[name]()
	}
	fmt.Printf("\ncompleted %d experiment(s) in %v\n", len(args), time.Since(start).Round(time.Millisecond))
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "dichotomy-bench: profile: %v\n", err)
		os.Exit(1)
	}
}
