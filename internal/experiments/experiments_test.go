package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{
		Records:  200,
		Accounts: 200,
		Duration: 400 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Workers:  8,
		Nodes:    3,
	}
}

func TestFig13ShapesHold(t *testing.T) {
	var buf bytes.Buffer
	Fig13(&buf, tiny(), []int{100})
	out := buf.String()
	if !strings.Contains(out, "Fig 13") {
		t.Fatalf("missing banner:\n%s", out)
	}
	// Parse the data row: size mbt mpt depths.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	fields := strings.Fields(last)
	if len(fields) < 5 {
		t.Fatalf("row %q malformed", last)
	}
	mbtOvh := atoi(t, fields[1])
	mptOvh := atoi(t, fields[2])
	// Fig 13's qualitative claims: MBT overhead is small and bounded by
	// its fixed tree; MPT overhead is an order of magnitude larger (the
	// paper reports 24 B vs >1 KB on geth's encoding; our compact node
	// encoding narrows but preserves the gap).
	if mbtOvh > 64 {
		t.Fatalf("MBT overhead %d B/record; paper reports ~24", mbtOvh)
	}
	if mptOvh < 5*mbtOvh {
		t.Fatalf("MPT (%d B) must dwarf MBT (%d B)", mptOvh, mbtOvh)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestFig15PredictionsPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs prototypes")
	}
	var buf bytes.Buffer
	Fig15(&buf, tiny())
	out := buf.String()
	for _, want := range []string{"Veritas", "BigchainDB", "veritas-like", "bigchaindb-like", "high", "low"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPeakOpenLoopRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two systems across load points")
	}
	var buf bytes.Buffer
	sc := tiny()
	Peak(&buf, sc, []float64{0.5})
	out := buf.String()
	for _, want := range []string{"Peak:", "queue-p99", "quorum-raft", "etcd"} {
		if !strings.Contains(out, want) {
			t.Fatalf("peak output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "preload-error") || strings.Contains(out, "no-peak") {
		t.Fatalf("peak sweep failed to calibrate:\n%s", out)
	}
}

func TestFig4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("spins five systems")
	}
	var buf bytes.Buffer
	Fig4(&buf, tiny())
	out := buf.String()
	for _, sys := range []string{"fabric", "quorum-raft", "tidb", "etcd", "tikv"} {
		if !strings.Contains(out, sys) {
			t.Fatalf("Fig4 missing %s:\n%s", sys, out)
		}
	}
	if strings.Contains(out, "preload-error") {
		t.Fatalf("preload failed:\n%s", out)
	}
}

func TestBlockShapeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	var buf bytes.Buffer
	BlockShape(&buf, tiny(), []int{100}, []int{1, 4}, []int{2})
	out := buf.String()
	if !strings.Contains(out, "BlockShape") {
		t.Fatalf("missing banner:\n%s", out)
	}
	// One row per (blocksize × workers × depth) cell plus the two header
	// lines; every cell must have produced a row even on 1-CPU hosts.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got, want := len(lines), 2+2; got != want {
		t.Fatalf("got %d output lines, want %d:\n%s", got, want, out)
	}
	for _, line := range lines[2:] {
		if !strings.HasPrefix(line, "fabric") {
			t.Fatalf("unexpected row %q", line)
		}
	}
}

func TestSigVerifyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spins three fabric networks")
	}
	var buf bytes.Buffer
	SigVerify(&buf, tiny(), []string{"serial", "batch", "aggregate"})
	out := buf.String()
	if !strings.Contains(out, "SigVerify") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if strings.Contains(out, "build-error") || strings.Contains(out, "unknown-mode") {
		t.Fatalf("sweep failed to build a mode:\n%s", out)
	}
	// Banner + column header + one row per mode.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got, want := len(lines), 2+3; got != want {
		t.Fatalf("got %d output lines, want %d:\n%s", got, want, out)
	}
	for i, mode := range []string{"serial", "batch", "aggregate"} {
		if !strings.Contains(lines[2+i], mode) {
			t.Fatalf("row %d missing mode %s:\n%s", i, mode, out)
		}
	}
}

func TestRecoveryRuns(t *testing.T) {
	var buf bytes.Buffer
	Recovery(&buf, tiny(), []string{"full", "delta"}, []uint64{4}, []float64{0.5, 1.0})
	out := buf.String()
	if !strings.Contains(out, "Recovery:") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("a recovered replica diverged from the healthy one:\n%s", out)
	}
	// Two modes × two crash fractions → four data rows, each ending "ok".
	fullRows, deltaRows := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasSuffix(trimmed, "ok") {
			continue
		}
		switch {
		case strings.HasPrefix(trimmed, "full"):
			fullRows++
		case strings.HasPrefix(trimmed, "delta"):
			deltaRows++
		}
	}
	if fullRows != 2 || deltaRows != 2 {
		t.Fatalf("want 2 verified rows per mode, got full=%d delta=%d:\n%s", fullRows, deltaRows, out)
	}
}

// TestChaosRuns pins the chaos experiment's rows: six systems under the
// crash schedule and under message faults, every one converging.
func TestChaosRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve chaos rows")
	}
	var buf bytes.Buffer
	Chaos(&buf, tiny(), []string{"crash", "net"}, []float64{0.05})
	out := buf.String()
	if !strings.Contains(out, "Chaos:") {
		t.Fatalf("missing banner:\n%s", out)
	}
	rows := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 12 && f[11] == "ok" && (f[1] == "crash" || f[1] == "net") {
			rows[f[0]+"/"+f[1]]++
		}
	}
	for _, sys := range []string{"fabric", "quorum", "veritas", "bigchaindb", "tidb", "spanner"} {
		for _, fault := range []string{"crash", "net"} {
			if rows[sys+"/"+fault] != 1 {
				t.Fatalf("no verified %s/%s row (want twelve rows ending ok):\n%s", sys, fault, out)
			}
		}
	}
}

func TestAuthReadsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spins four quorum networks")
	}
	var buf bytes.Buffer
	AuthReads(&buf, tiny())
	out := buf.String()
	if !strings.Contains(out, "AuthReads") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if strings.Contains(out, "build-error") {
		t.Fatalf("sweep failed to build:\n%s", out)
	}
	// Banner + column header + one row per sweep point.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got, want := len(lines), 2+4; got != want {
		t.Fatalf("got %d output lines, want %d:\n%s", got, want, out)
	}
	for _, line := range lines[2:] {
		if !strings.HasPrefix(strings.TrimSpace(line), "quorum-raft") {
			t.Fatalf("unexpected row: %q\n%s", line, out)
		}
	}
}

func TestIngressRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spins three mempool-fed systems across load points")
	}
	var buf bytes.Buffer
	Ingress(&buf, tiny(), []float64{1})
	out := buf.String()
	for _, want := range []string{"Ingress:", "door-p99", "shed", "fabric", "quorum-raft", "veritas-like"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ingress output missing %q:\n%s", want, out)
		}
	}
	for _, bad := range []string{"build-error", "preload-error", "no-peak"} {
		if strings.Contains(out, bad) {
			t.Fatalf("ingress sweep failed:\n%s", out)
		}
	}
	// Banner + column header + one row per system per multiplier.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if got, want := len(lines), 2+3; got != want {
		t.Fatalf("got %d output lines, want %d:\n%s", got, want, out)
	}
}
