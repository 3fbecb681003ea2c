package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, res, ok := parseLine("BenchmarkStateScaling/striped/workers=4-8  \t 1250\t    912345 ns/op\t  42.5 tps")
	if !ok {
		t.Fatal("line rejected")
	}
	if name != "BenchmarkStateScaling/striped/workers=4" {
		t.Fatalf("name %q (cpu suffix not stripped?)", name)
	}
	if res.Iterations != 1250 {
		t.Fatalf("iterations %d", res.Iterations)
	}
	if res.Metrics["ns/op"] != 912345 || res.Metrics["tps"] != 42.5 {
		t.Fatalf("metrics %v", res.Metrics)
	}
}

func TestParseLineCapturesBenchmem(t *testing.T) {
	// A -benchmem line carries B/op and allocs/op after the time; the
	// trajectory must keep them so allocation regressions are visible.
	name, res, ok := parseLine("BenchmarkTxMarshal-8   1173304   209.2 ns/op   576 B/op   1 allocs/op")
	if !ok {
		t.Fatal("benchmem line rejected")
	}
	if name != "BenchmarkTxMarshal" {
		t.Fatalf("name %q", name)
	}
	if res.Metrics["B/op"] != 576 || res.Metrics["allocs/op"] != 1 {
		t.Fatalf("benchmem metrics %v", res.Metrics)
	}
	// Sub-benchmark names keep their mode labels distinct (the recovery
	// full-vs-delta separation relies on it).
	name, _, ok = parseLine("BenchmarkRecovery/mode=delta-8   1   5123456 ns/op   0 B/op   0 allocs/op")
	if !ok || name != "BenchmarkRecovery/mode=delta" {
		t.Fatalf("sub-benchmark name %q (ok=%v)", name, ok)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \tdichotomy\t12.3s",
		"interval  tip  crash@",
		"4   227   113   112", // experiment table row, no Benchmark prefix
		"BenchmarkBroken notanumber 5 ns/op",
		"BenchmarkNoMetrics 5",
	} {
		if name, _, ok := parseLine(line); ok {
			t.Fatalf("accepted %q as benchmark %q", line, name)
		}
	}
}

// convert records the CPU model from go test's header and the CPU count
// beside the rows, and compare reads neither: a run on other hardware with
// the same counts passes.
func TestConvertRecordsTheHardware(t *testing.T) {
	out, err := convert(strings.NewReader("goos: linux\ngoarch: amd64\npkg: dichotomy/internal/txn\n" +
		"cpu: Intel(R) Xeon(R) Processor\n" +
		"BenchmarkTxMarshal-2   1173304   209.2 ns/op   576 B/op   1 allocs/op\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out.CPU != "Intel(R) Xeon(R) Processor" || out.NumCPU != runtime.NumCPU() {
		t.Fatalf("hardware %q × %d, want the header's model × %d", out.CPU, out.NumCPU, runtime.NumCPU())
	}
	if _, ok := out.Benchmarks["BenchmarkTxMarshal"]; !ok || len(out.Benchmarks) != 1 {
		t.Fatalf("rows %v", out.Benchmarks)
	}
	other := Output{CPU: "another", NumCPU: 64, Benchmarks: out.Benchmarks}
	if bad := compare(out, other); len(bad) != 0 {
		t.Fatalf("compare read the hardware: %q", bad)
	}
	if _, err := convert(strings.NewReader("cpu: x\nPASS\n")); err == nil {
		t.Fatal("input without a benchmark line converted")
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	row := func(allocs float64) Result {
		return Result{Iterations: 1, Metrics: map[string]float64{"allocs/op": allocs, "ns/op": 100}}
	}
	doc := func(rows map[string]Result) Output { return Output{Benchmarks: rows} }
	old := doc(map[string]Result{
		"BenchmarkVerifyDigest":                 row(11),
		"BenchmarkSigVerify/mode=serial":        row(704),
		"BenchmarkRegionCmdCodec/shape=commit":  row(2),
		"BenchmarkSQLParse/stmt=update-1KB":     row(1),
		"BenchmarkIngress":                      row(9057443), // a sweep: not gated
		"BenchmarkStateScaling/striped/workers": {Iterations: 1, Metrics: map[string]float64{"ns/op": 5}},
		"BenchmarkReplay/system=quorum":         row(14362), // 0.1 % slack: 14 allocations
	})
	for _, c := range []struct {
		name string
		cur  map[string]Result
		want []string
	}{
		{"identical", old.Benchmarks, nil},
		{"a replay inside its slack", map[string]Result{
			"BenchmarkVerifyDigest":                row(11),
			"BenchmarkSigVerify/mode=serial":       row(704),
			"BenchmarkRegionCmdCodec/shape=commit": row(2),
			"BenchmarkSQLParse/stmt=update-1KB":    row(1),
			"BenchmarkReplay/system=quorum":        row(14376),
		}, nil},
		{"improved and a new row", map[string]Result{
			"BenchmarkVerifyDigest":                 row(10),
			"BenchmarkSigVerify/mode=serial":        row(704),
			"BenchmarkRegionCmdCodec/shape=commit":  row(2),
			"BenchmarkSQLParse/stmt=update-1KB":     row(1),
			"BenchmarkSQLParse/stmt=select":         row(1),
			"BenchmarkIngress":                      row(1),
			"BenchmarkStateScaling/striped/workers": row(0),
			"BenchmarkReplay/system=quorum":         row(14000),
		}, nil},
		{"ungated row rose", map[string]Result{
			"BenchmarkVerifyDigest":                row(11),
			"BenchmarkSigVerify/mode=serial":       row(704),
			"BenchmarkRegionCmdCodec/shape=commit": row(2),
			"BenchmarkSQLParse/stmt=update-1KB":    row(1),
			"BenchmarkIngress":                     row(99057443),
			"BenchmarkReplay/system=quorum":        row(14362),
		}, nil},
		{"one more allocation, a replay past its slack, and a gated row gone", map[string]Result{
			"BenchmarkVerifyDigest":                row(12),
			"BenchmarkRegionCmdCodec/shape=commit": row(2),
			"BenchmarkSQLParse/stmt=update-1KB":    row(3),
			"BenchmarkReplay/system=quorum":        row(14382), // one more per block
		}, []string{
			"BenchmarkReplay/system=quorum: allocs/op 14362 -> 14382",
			"BenchmarkSQLParse/stmt=update-1KB: allocs/op 1 -> 3",
			"BenchmarkSigVerify/mode=serial: allocs/op 704 -> row missing",
			"BenchmarkVerifyDigest: allocs/op 11 -> 12",
		}},
	} {
		got := compare(old, doc(c.cur))
		if len(got) != len(c.want) {
			t.Errorf("%s: regressions %q, want %q", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: regression %d = %q, want %q", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("old.json", `{"benchmarks":{"BenchmarkSignDigest":{"iterations":1,"metrics":{"allocs/op":67}}}}`)
	same := write("same.json", `{"benchmarks":{"BenchmarkSignDigest":{"iterations":9,"metrics":{"allocs/op":67}}}}`)
	worse := write("worse.json", `{"benchmarks":{"BenchmarkSignDigest":{"iterations":9,"metrics":{"allocs/op":68}}}}`)
	broken := write("broken.json", `{"benchmarks":`)
	for _, c := range []struct {
		old, cur string
		want     int
	}{
		{base, same, 0},
		{base, worse, 1},
		{base, broken, 2},
		{filepath.Join(dir, "absent.json"), same, 2},
	} {
		if got := runCompare(c.old, c.cur); got != c.want {
			t.Errorf("runCompare(%s, %s) = %d, want %d", filepath.Base(c.old), filepath.Base(c.cur), got, c.want)
		}
	}
}
