// Command benchmark is the one benchmark every speed claim in this
// repository is measured with: four workloads, end-to-end metrics with
// regression bounds, and a per-layer budget from a separate traced run.
// BENCHMARK.json at the repository root declares the workloads and the
// metrics; README.md in this directory explains them.
//
//	go run ./benchmark -workload fabric-update -seed 1            # end-to-end metrics
//	go run ./benchmark -workload fabric-update -seed 1 -trace 1   # per-layer metrics + spans
//	go run ./benchmark -selfcheck                                 # two sets, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (all when empty)")
		seed      = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds   = flag.Float64("seconds", 18, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
		out       = flag.String("out", ".bench_build/run", "directory for data files and traces (never committed)")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of every workload and compare their medians to the bounds in BENCHMARK.json")
	)
	flag.Parse()
	p := params{seconds: *seconds, setups: 3, probes: 30, harnessN: 2000, harnessReps: 5}
	var err error
	if p.scratch, err = filepath.Abs(*out); err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	stamp()

	if *selfcheck {
		if err := runSelfcheck(p, *seed); err != nil {
			fatal(err)
		}
		return
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{w}
	}
	bad := false
	for _, w := range todo {
		res, d, err := runWorkload(w, *seed, p, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		d.print()
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		bad = bad || !res.Correct
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// stamp records what the numbers were measured on. It goes to standard
// error: standard output carries only result lines.
func stamp() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	fmt.Fprintf(os.Stderr, "# cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s network=ZeroLink(delay 0: latency is processor time plus the systems' 5ms batch/block timers)\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// print writes the run's detail to standard error.
func (d *detail) print() {
	fmt.Fprintf(os.Stderr, "# %s seed=%d setup_s=%.3f idle_ms=%.2f pool_spill=%d late_max_ms=%.3f\n",
		d.workload, d.seed, d.setupS, d.idleMs, d.spill, d.lateMaxMs)
	for _, name := range []string{"tps", "cpu_us_per_tx", "allocs_per_tx", "alloc_kb_per_tx", "p50_ms", "p95_ms"} {
		if v := d.windows[name]; len(v) > 0 {
			fmt.Fprintf(os.Stderr, "#   %-16s windows min=%.2f median=%.2f max=%.2f\n",
				name, slices.Min(v), median(v), slices.Max(v))
		}
	}
	if d.firstErr != nil {
		fmt.Fprintf(os.Stderr, "#   first failure: %v\n", d.firstErr)
	}
	if d.tracePath != "" {
		fmt.Fprintf(os.Stderr, "#   spans: %s\n", d.tracePath)
	}
	if d.violation != nil {
		fmt.Fprintf(os.Stderr, "# CORRECTNESS VIOLATION: %v\n", d.violation)
	}
}
