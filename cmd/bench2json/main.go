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
// ignored. A benchmark that appears more than once keeps its last result.
//
//	bench2json -compare old.json new.json
//
// gates the deterministic micro-benchmarks: it exits 1 when a gated row's
// allocs/op rose from old to new, or the row is gone.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
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
	// Benchmarks maps benchmark name (with -cpu suffix stripped) to its
	// last parsed result.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// gated names the benchmarks whose allocs/op is a property of the code,
// not of the run: fixed work, no goroutines or timers that allocate per
// operation (BenchmarkTxnCommit's apply loops and pooled timers allocate
// nothing per command). A name gates its sub-benchmarks too.
var gated = []string{
	"BenchmarkVerifyDigest", "BenchmarkSignDigest", "BenchmarkEndorsementDigest",
	"BenchmarkProofServe", "BenchmarkSigVerify", "BenchmarkRegionCmdCodec", "BenchmarkSQLParse",
	"BenchmarkRegionApply", "BenchmarkSQLStatement", "BenchmarkTxnCommit",
	"BenchmarkRootHash/mode=published", "BenchmarkContractExecute", "BenchmarkCheckpointWorker",
}

func isGated(name string) bool {
	for _, g := range gated {
		if name == g || strings.HasPrefix(name, g+"/") {
			return true
		}
	}
	return false
}

// compare returns one line per gated benchmark of old whose allocs/op is
// higher in cur, or which cur no longer has. Benchmarks only cur has are
// new rows, not regressions.
func compare(old, cur Output) []string {
	var bad []string
	for name, o := range old.Benchmarks {
		was, ok := o.Metrics["allocs/op"]
		if !ok || !isGated(name) {
			continue
		}
		now, ok := cur.Benchmarks[name].Metrics["allocs/op"]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: allocs/op %v -> row missing", name, was))
		case now > was:
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
	out := Output{Go: os.Getenv("BENCH_GO_VERSION"), Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, res, ok := parseLine(sc.Text())
		if ok {
			out.Benchmarks[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: read: %v\n", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines found on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench2json: write: %v\n", err)
		os.Exit(1)
	}
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
