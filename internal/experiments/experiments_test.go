package experiments

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"dichotomy/internal/system"
	"dichotomy/internal/txn"
	"dichotomy/internal/workload/ycsb"
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

// column returns the cells of tab's column name, one per row, with nil
// for a row too short to have it.
func column(t *testing.T, tab Table, name string) []any {
	t.Helper()
	i := slices.Index(tab.Cols, name)
	if i < 0 {
		t.Fatalf("%s: no column %q in %v", tab.Title, name, tab.Cols)
	}
	cells := make([]any, len(tab.Rows))
	for r, row := range tab.Rows {
		if i < len(row) {
			cells[r] = row[i]
		}
	}
	return cells
}

// failures are the marker cells of a point that was not measured.
var failures = []any{"build-error", "preload-error", "no-peak", "no-quiesce", "recover-error"}

// requireMeasured fails the test if any row of tab is a failed point.
func requireMeasured(t *testing.T, tab Table) {
	t.Helper()
	for _, row := range tab.Rows {
		for _, c := range row {
			if slices.Contains(failures, c) {
				t.Fatalf("%s: failed point %v", tab.Title, row)
			}
		}
	}
}

// requireAll fails the test unless every cell is one of want and each of
// want appears.
func requireAll(t *testing.T, cells []any, want ...any) {
	t.Helper()
	for _, c := range cells {
		if !slices.Contains(want, c) {
			t.Fatalf("unexpected cell %v (want one of %v)", c, want)
		}
	}
	for _, w := range want {
		if !slices.Contains(cells, w) {
			t.Fatalf("no cell %v in %v", w, cells)
		}
	}
}

// stub is a system whose every transaction fails; it counts its Closes.
type stub struct {
	system.Blocking
	closed int
}

func (s *stub) Name() string { return "stub" }
func (s *stub) Close()       { s.closed++ }

// TestFailedPointIsOneErrorRow pins the point runner's failure contract:
// a build or a preload that fails yields exactly one row, led by the
// point's key and marked with the step that failed, and never runs the
// measurement.
func TestFailedPointIsOneErrorRow(t *testing.T) {
	boom := errors.New("boom")
	failing := &stub{Blocking: system.NewBlocking(func(*txn.Tx) system.Result { return system.Result{Err: boom} })}
	for _, c := range []struct {
		build builder
		want  []any
	}{
		{func() (system.System, error) { return nil, boom }, []any{"-", 7, "build-error", "boom"}},
		{func() (system.System, error) { return failing, nil }, []any{"stub", 7, "preload-error", "boom"}},
	} {
		var tab Table
		tab.measure([]any{7}, c.build, loadYCSB(ycsb.Config{Records: 1}), func(system.System) [][]any {
			t.Fatal("measured a point that failed")
			return nil
		})
		if len(tab.Rows) != 1 || !slices.Equal(tab.Rows[0], c.want) {
			t.Fatalf("rows %v, want [%v]", tab.Rows, c.want)
		}
	}
	if failing.closed != 1 {
		t.Fatalf("system whose preload failed closed %d times, want 1", failing.closed)
	}
}

func TestFig13ShapesHold(t *testing.T) {
	tab := Fig13(tiny(), []int{100})[0]
	if len(tab.Rows) != 1 {
		t.Fatalf("want one row, got %v", tab.Rows)
	}
	mbtOvh := column(t, tab, "mbt-ovh")[0].(int64)
	mptOvh := column(t, tab, "mpt-ovh")[0].(int64)
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

// TestFig13Golden pins the printed form: Fig 13 is deterministic, so its
// rendering at the registry's quick axes must match the captured output
// of `dichotomy-bench fig13` byte for byte.
func TestFig13Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig13.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, tab := range Fig13(Quick(), recordSizes) {
		tab.Render(&got)
	}
	if got.String() != string(want) {
		t.Fatalf("Fig 13 renders\n%s\nwant\n%s", got.String(), want)
	}
}

// TestFig12LedgerIsTheMultiplier checks the claim Fig 12 is drawn for:
// Fabric's ledger, which retains every block, takes more bytes per record
// than its state at every record size.
func TestFig12LedgerIsTheMultiplier(t *testing.T) {
	if testing.Short() {
		t.Skip("spins two systems per record size")
	}
	tab := Fig12(tiny(), recordSizes)[0]
	requireMeasured(t, tab)
	systems, sizes := column(t, tab, "system"), column(t, tab, "size")
	states, blocks := column(t, tab, "state"), column(t, tab, "block")
	fabricRows := 0
	for i := range tab.Rows {
		if systems[i] != "fabric" {
			continue
		}
		fabricRows++
		if blocks[i].(int64) <= states[i].(int64) {
			t.Fatalf("size %v: fabric block %v B/record ≤ state %v B/record", sizes[i], blocks[i], states[i])
		}
	}
	if fabricRows != len(recordSizes) {
		t.Fatalf("want one fabric row per size, got %d:\n%v", fabricRows, tab.Rows)
	}
}

func TestFig15PredictionsPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs prototypes")
	}
	tabs := Fig15(tiny())
	catalog, measured := tabs[0], tabs[1]
	for _, want := range []string{"Veritas", "BigchainDB"} {
		if !slices.Contains(column(t, catalog, "system"), any(want)) {
			t.Fatalf("catalog missing %q: %v", want, catalog.Rows)
		}
	}
	for _, want := range []string{"high", "low"} {
		if !slices.Contains(column(t, catalog, "predicted"), any(want)) {
			t.Fatalf("catalog predicts no %q: %v", want, catalog.Rows)
		}
	}
	requireMeasured(t, measured)
	requireAll(t, column(t, measured, "prototype"), "veritas-like", "bigchaindb-like")
	requireAll(t, column(t, measured, "predicted"), "high", "low")
}

func TestPeakOpenLoopRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two systems across load points")
	}
	tab := Peak(tiny(), []float64{0.5})[0]
	requireMeasured(t, tab)
	requireAll(t, column(t, tab, "system"), "quorum-raft", "etcd")
	column(t, tab, "queue-p99")
}

func TestFig4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("spins five systems")
	}
	tab := Fig4(tiny())[0]
	requireMeasured(t, tab)
	requireAll(t, column(t, tab, "system"), "fabric", "quorum-raft", "tidb", "etcd", "tikv")
}

func TestBlockShapeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell sweep")
	}
	tab := BlockShape(tiny(), ShapeAxes{Sizes: []int{100}, Workers: []int{1, 4}, Depths: []int{2}})[0]
	// One row per (blocksize × workers × depth) cell; every cell must
	// have been measured even on 1-CPU hosts.
	requireMeasured(t, tab)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2: %v", len(tab.Rows), tab.Rows)
	}
	requireAll(t, column(t, tab, "system"), "fabric")
	requireAll(t, column(t, tab, "workers"), 1, 4)
}

func TestSigVerifyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spins three fabric networks")
	}
	modes := []any{"serial", "batch", "aggregate"}
	tab := SigVerify(tiny(), []string{"serial", "batch", "aggregate"})[0]
	requireMeasured(t, tab)
	if got := column(t, tab, "mode"); !slices.Equal(got, modes) {
		t.Fatalf("modes %v, want one row each of %v", got, modes)
	}
}

func TestRecoveryRuns(t *testing.T) {
	tab := Recovery(tiny(), RecoveryAxes{Modes: []string{"full", "delta"}, Intervals: []uint64{4}, Crashes: []float64{0.5, 1.0}})[0]
	requireMeasured(t, tab)
	// Two modes × two crash fractions → four rows, each verified
	// byte-identical to the healthy replica.
	modes, verified := column(t, tab, "mode"), column(t, tab, "verified")
	rows := map[any]int{}
	for i := range tab.Rows {
		if verified[i] != "ok" {
			t.Fatalf("recovered replica not verified (%v): %v", verified[i], tab.Rows[i])
		}
		rows[modes[i]]++
	}
	if rows["full"] != 2 || rows["delta"] != 2 || len(tab.Rows) != 4 {
		t.Fatalf("want 2 verified rows per mode, got %v: %v", rows, tab.Rows)
	}
}

// TestChaosRuns pins the chaos experiment's rows: six systems under the
// crash schedule and under message faults, every one converging.
func TestChaosRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve chaos rows")
	}
	tab := Chaos(tiny(), ChaosAxes{Faults: []string{"crash", "net"}, Rates: []float64{0.05}})[0]
	requireMeasured(t, tab)
	systems, faults, verified := column(t, tab, "system"), column(t, tab, "fault"), column(t, tab, "verified")
	rows := map[string]int{}
	for i := range tab.Rows {
		if verified[i] != "ok" {
			t.Fatalf("%v/%v did not converge (%v): %v", systems[i], faults[i], verified[i], tab.Rows[i])
		}
		rows[systems[i].(string)+"/"+faults[i].(string)]++
	}
	for _, sys := range []string{"fabric", "quorum-raft", "veritas-like", "bigchaindb-like", "tidb", "spanner"} {
		for _, fault := range []string{"crash", "net"} {
			if rows[sys+"/"+fault] != 1 {
				t.Fatalf("no verified %s/%s row (want twelve rows ending ok): %v", sys, fault, tab.Rows)
			}
		}
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("want twelve rows, got %d: %v", len(tab.Rows), tab.Rows)
	}
}

func TestAuthReadsRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spins four quorum networks")
	}
	tab := AuthReads(tiny())[0]
	requireMeasured(t, tab)
	// One row per sweep point.
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d rows, want 4: %v", len(tab.Rows), tab.Rows)
	}
	requireAll(t, column(t, tab, "system"), "quorum-raft")
}

func TestIngressRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spins three mempool-fed systems across load points")
	}
	tab := Ingress(tiny(), []float64{1})[0]
	requireMeasured(t, tab)
	column(t, tab, "door-p99")
	column(t, tab, "shed")
	// One row per system per multiplier.
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3: %v", len(tab.Rows), tab.Rows)
	}
	requireAll(t, column(t, tab, "system"), "fabric", "quorum-raft", "veritas-like")
}

// TestRegistryOrder pins the experiment names and the order
// `dichotomy-bench all` runs them in.
func TestRegistryOrder(t *testing.T) {
	var names []string
	for _, e := range Registry {
		names = append(names, e.Name)
	}
	want := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "table4", "table5", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "peak", "contention", "blockshape", "recovery",
		"sigverify", "authreads", "ingress", "chaos"}
	if !slices.Equal(names, want) {
		t.Fatalf("registry %v, want %v", names, want)
	}
}
