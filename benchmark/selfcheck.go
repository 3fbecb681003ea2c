package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// declFile is BENCHMARK.json, the contract this benchmark is run under.
type declFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDecl(path string) (declFile, error) {
	var d declFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// selfcheckRuns is how many runs make one set. The bounds are sized for
// medians of ten (what the pipeline compares); a single pair of runs on a
// shared host differs by more than that one time in four, so the
// self-check compares medians of three.
const selfcheckRuns = 3

// runSelfcheck runs two sets of selfcheckRuns runs of every workload on
// this build (seeds seed, seed+1, …, the same in both sets) and fails if
// the sets' medians of any end-to-end metric differ by more than its
// bound. It prints both medians, the bound, and the run-to-run and
// window-to-window ranges, so a bound that is too tight for this machine
// is visible as such.
func runSelfcheck(p params, seed int64) error {
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs the repository root as working directory: %w", err)
	}
	p.seconds = float64(decl.RunSeconds)
	// values[set][workload][metric] lists the metric over the set's runs;
	// windows likewise pools every run's per-window values.
	type series map[string]map[string][]float64
	values, windows := [2]series{{}, {}}, [2]series{{}, {}}
	for set := range values {
		for _, w := range workloads {
			values[set][w.name], windows[set][w.name] = map[string][]float64{}, map[string][]float64{}
			for r := 0; r < selfcheckRuns; r++ {
				res, d, err := runWorkload(w, seed+int64(r), p, false)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				d.print()
				if !res.Correct {
					return fmt.Errorf("%s: correctness violation: %w", w.name, d.violation)
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
					windows[set][w.name][name] = append(windows[set][w.name][name], d.windows[name]...)
				}
			}
		}
	}
	failed := 0
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, md := range decl.EndToEnd {
			a, b := values[0][w.name][md.Name], values[1][w.name][md.Name]
			diff := math.Abs(median(b)-median(a)) / math.Abs(median(a))
			verdict := "ok"
			if diff > md.Bound {
				verdict = "OUTSIDE BOUND"
				failed++
			}
			fmt.Printf("  %-16s %12.4f %12.4f %-6s diff %6.2f%%  bound %5.2f%%  %s\n",
				md.Name, median(a), median(b), md.Unit, 100*diff, 100*md.Bound, verdict)
			for set, runs := range [][]float64{a, b} {
				fmt.Printf("    set %d runs: min %.4f median %.4f max %.4f", set+1, slices.Min(runs), median(runs), slices.Max(runs))
				if win := windows[set][w.name][md.Name]; len(win) > 0 {
					fmt.Printf("   windows: min %.4f median %.4f max %.4f", slices.Min(win), median(win), slices.Max(win))
				}
				fmt.Println()
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d metric × workload pairs differ by more than their bound", failed)
	}
	return nil
}
