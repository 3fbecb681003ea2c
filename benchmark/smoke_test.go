package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// smoke sizes a run that only has to prove the plumbing: every declared
// metric comes out, with its unit, and the correctness gate passes.
func smoke(t *testing.T) params {
	return params{seconds: 0.45, setups: 1, probes: 4, harnessN: 100, harnessReps: 1, scratch: t.TempDir()}
}

func declared(t *testing.T) declFile {
	t.Helper()
	d, err := readDecl("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationParses(t *testing.T) {
	d := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Paths) != 1 || strings.TrimSuffix(d.Paths[0], "/") != "benchmark" {
		t.Errorf("paths = %v, want the benchmark directory alone", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", d.RunSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / why %q", i, w.Name, w.Why)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range d.EndToEnd {
		if !name.MatchString(m.Name) || seen[m.Name] || m.Unit == "" {
			t.Errorf("end-to-end metric %+v", m)
		}
		seen[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
	for _, m := range d.PerLayer {
		if !name.MatchString(m.Name) || seen[m.Name] || m.Unit == "" || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload untraced at smoke scale, and traced the
// two whose traced run has behaviour of its own (the door's counters, the
// crash schedule in both paced phases), and checks the emitted metric
// names and units against BENCHMARK.json exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four systems")
	}
	d := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "quorum-smallbank-skew" && w.name != "fabric-durable-crash" {
				continue
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			res, det, err := runWorkload(w, 1, smoke(t), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: %v", w.name, traced, det.violation)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d (%v)", w.name, traced, res.Attempted, res.Failed, det.firstErr)
			}
			var missing []string
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					missing = append(missing, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			var extra []string
			for name := range res.Metrics {
				found := false
				for _, m := range want {
					found = found || m.Name == name
				}
				if !found {
					extra = append(extra, name)
				}
			}
			sort.Strings(extra)
			if len(missing)+len(extra) > 0 {
				t.Errorf("%s traced=%v: missing %v, undeclared %v", w.name, traced, missing, extra)
			}
			if traced {
				if fi, err := os.Stat(det.tracePath); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
				if res.Metrics["ingress.deduped"].Value != 0 {
					t.Errorf("%s: the door deduplicated %v submissions", w.name, res.Metrics["ingress.deduped"].Value)
				}
			}
		}
	}
}
