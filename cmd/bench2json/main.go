// Command bench2json converts `go test -bench` output on stdin into the
// BENCH_ci.json trajectory format on stdout: a JSON object mapping each
// benchmark name to its iteration count and reported metrics (ns/op,
// tps, B/op, allocs/op, and any custom ReportMetric units). CI runs the
// smoke benchmarks through it — with -benchmem, so the B/op and
// allocs/op columns land in every entry and the trajectory catches
// allocation regressions, not just time ones — and uploads the result
// as an artifact, so the repository accumulates a perf trajectory over
// time instead of throwing benchmark output away in the job log.
//
//	go test -run '^$' -bench 'Recovery|StateScaling|BlockShape' -benchmem . | go run ./cmd/bench2json > BENCH_ci.json
//
// Lines that are not benchmark results (experiment tables, PASS/ok) are
// ignored, but for `go test`'s "cpu:" header, which names the CPU model
// the document records beside the Go version and the CPU count. A
// benchmark that appears more than once keeps its last result.
//
//	bench2json -compare old.json new.json
//
// gates the deterministic benchmarks: it exits 1 when a gated row's
// allocs/op rose from old to new by more than the row's slack, or the row
// is gone. The hardware fields are not compared.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed measurements.
type Result struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Output is the BENCH_ci.json document shape.
type Output struct {
	// Go is the toolchain that produced the run (from `go version`-style
	// env, best effort).
	Go string `json:"go,omitempty"`
	// CPU is the CPU model `go test` named in its "cpu:" header, and
	// NumCPU the logical CPUs the converting process sees (CI converts on
	// the machine that ran the benchmarks).
	CPU    string `json:"cpu,omitempty"`
	NumCPU int    `json:"num_cpu,omitempty"`
	// Benchmarks maps benchmark name (with -cpu suffix stripped) to its
	// last parsed result.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// gated names the benchmarks whose allocs/op is a property of the code,
// not of the run: fixed work, no goroutines or timers that allocate per
// operation (BenchmarkTxnCommit's apply loops and pooled timers allocate
// nothing per command, and BenchmarkIngressRoundTrip's builder nothing per
// batch; BenchmarkLogAppend's 4 pages of raft log are 4 pages and the page
// table's growth; BenchmarkEndorse's three goroutines are one closure each).
// A name gates its sub-benchmarks too. Each maps to its
// slack, the share by which allocs/op may rise before the row fails: none
// for the exact rows, and 0.1 % for BenchmarkReplay, a whole replica's
// replay, whose root maintainer and pooled buffers (refilled after a GC)
// move it by up to 0.04 % from run to run — well under one allocation per
// replayed block (0.14 % for Quorum's row, 0.24 % for Fabric's).
var gated = map[string]float64{
	"BenchmarkVerifyDigest": 0, "BenchmarkSignDigest": 0, "BenchmarkEndorsementDigest": 0,
	"BenchmarkProofServe": 0, "BenchmarkSigVerify": 0, "BenchmarkRegionCmdCodec": 0, "BenchmarkSQLParse": 0,
	"BenchmarkRegionApply": 0, "BenchmarkSQLStatement": 0, "BenchmarkTxnCommit": 0,
	"BenchmarkRootHash/mode=published": 0, "BenchmarkContractExecute": 0, "BenchmarkCheckpointWorker": 0,
	"BenchmarkApplyBlock": 0, "BenchmarkBlockDecode": 0, "BenchmarkIngressRoundTrip": 0, "BenchmarkLogAppend": 0,
	"BenchmarkEndorse": 0, "BenchmarkReplay": 0.001,
}

// slack reports whether name is gated and the share its allocs/op may rise.
func slack(name string) (float64, bool) {
	for g, s := range gated {
		if name == g || strings.HasPrefix(name, g+"/") {
			return s, true
		}
	}
	return 0, false
}

// compare returns one line per gated benchmark of old whose allocs/op is
// higher in cur by more than its slack, or which cur no longer has.
// Benchmarks only cur has are new rows, not regressions.
func compare(old, cur Output) []string {
	var bad []string
	for name, o := range old.Benchmarks {
		was, ok := o.Metrics["allocs/op"]
		share, gate := slack(name)
		if !ok || !gate {
			continue
		}
		now, ok := cur.Benchmarks[name].Metrics["allocs/op"]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: allocs/op %v -> row missing", name, was))
		case now > was*(1+share):
			bad = append(bad, fmt.Sprintf("%s: allocs/op %v -> %v", name, was, now))
		}
	}
	sort.Strings(bad)
	return bad
}

// runCompare is the -compare mode; it returns the process exit code.
func runCompare(oldPath, newPath string) int {
	var docs [2]Output
	for i, path := range []string{oldPath, newPath} {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: compare %s: %v\n", path, err)
			return 2
		}
	}
	bad := compare(docs[0], docs[1])
	for _, line := range bad {
		fmt.Fprintln(os.Stderr, "bench2json: regression:", line)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench2json: gated allocs/op rows no worse than", oldPath)
	return 0
}

func main() {
	if len(os.Args) == 4 && os.Args[1] == "-compare" {
		os.Exit(runCompare(os.Args[2], os.Args[3]))
	}
	out, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: %v\n", err)
		os.Exit(1)
	}
	out.Go = os.Getenv("BENCH_GO_VERSION")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: write: %v\n", err)
		os.Exit(1)
	}
}

// convert reads `go test -bench` output: every result line, and the CPU
// model from the "cpu:" header.
func convert(r io.Reader) (Output, error) {
	out := Output{NumCPU: runtime.NumCPU(), Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if model, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			out.CPU = strings.TrimSpace(model)
		} else if name, res, ok := parseLine(sc.Text()); ok {
			out.Benchmarks[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("read: %w", err)
	}
	if len(out.Benchmarks) == 0 {
		return out, fmt.Errorf("no benchmark lines found on stdin")
	}
	return out, nil
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkFoo/sub=1-8   123   456789 ns/op   12.3 tps   64 B/op
//
// i.e. name, iterations, then value-unit pairs.
func parseLine(line string) (string, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Result{}, false
	}
	name := fields[0]
	// Strip the GOMAXPROCS suffix (-8) so trajectories compare across
	// runner shapes.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	if len(res.Metrics) == 0 {
		return "", Result{}, false
	}
	return name, res, true
}
