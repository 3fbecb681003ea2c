// Command dichotomy-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dichotomy-bench [-full] [-cpuprofile file] [-memprofile file] <experiment> [experiment...]
//	dichotomy-bench all
//
// The experiments are experiments.Registry's, in its order; all runs every
// one, and no argument prints their names.
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
	"slices"
	"strings"
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
	names := []string{"all"}
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dichotomy-bench [-full] [-cpuprofile file] [-memprofile file] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(names, " "))
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = names[1:]
	}
	var run []experiments.Experiment
	for _, name := range args {
		i := slices.IndexFunc(experiments.Registry, func(e experiments.Experiment) bool { return e.Name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		run = append(run, experiments.Registry[i])
	}
	sc := experiments.Quick()
	if *full {
		sc = experiments.Full()
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dichotomy-bench: profile: %v\n", err)
		os.Exit(2)
	}
	start := time.Now()
	for _, e := range run {
		for _, t := range e.Run(sc, *full) {
			t.Render(os.Stdout)
		}
	}
	fmt.Printf("\ncompleted %d experiment(s) in %v\n", len(run), time.Since(start).Round(time.Millisecond))
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "dichotomy-bench: profile: %v\n", err)
		os.Exit(1)
	}
}
