package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ingress"
	"dichotomy/internal/occ"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// stubSystem commits everything with a fixed latency; every k-th
// transaction aborts with a read-write conflict.
type stubSystem struct {
	latency time.Duration
	abortK  uint64
	count   atomic.Uint64
}

func (s *stubSystem) Name() string { return "stub" }

func (s *stubSystem) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(s, t)
}

func (s *stubSystem) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	return system.NewBlocking(func(*txn.Tx) system.Result {
		n := s.count.Add(1)
		if s.latency > 0 {
			time.Sleep(s.latency)
		}
		if s.abortK > 0 && n%s.abortK == 0 {
			return system.Result{Reason: occ.ReadWriteConflict}
		}
		return system.Result{Committed: true}
	}).Submit(ctx, t)
}

func (s *stubSystem) Close() {}

func sources(n int) []TxSource {
	client := cryptoutil.MustNewSigner("c")
	out := make([]TxSource, n)
	for i := range out {
		out[i] = FuncSource(func() (*txn.Tx, error) {
			return txn.Sign(client, txn.Invocation{Contract: "kv", Method: "put",
				Args: [][]byte{[]byte("k"), []byte("v")}})
		})
	}
	return out
}

func TestRunCountsAndTPS(t *testing.T) {
	sys := &stubSystem{latency: time.Millisecond}
	r := Run(sys, sources(4), Options{
		Workers:  4,
		Duration: 300 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
	})
	if r.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if r.TPS <= 0 {
		t.Fatal("TPS not computed")
	}
	// 4 workers at ~1ms per tx ≈ 4000 tps; allow a wide band.
	if r.TPS < 500 || r.TPS > 10_000 {
		t.Fatalf("TPS = %.0f implausible", r.TPS)
	}
	if r.Latency.Count == 0 || r.Latency.Mean < 500*time.Microsecond {
		t.Fatalf("latency summary off: %+v", r.Latency)
	}
}

func TestRunAbortAccounting(t *testing.T) {
	sys := &stubSystem{abortK: 4} // 25% aborts
	r := Run(sys, sources(2), Options{
		Workers:  2,
		Duration: 200 * time.Millisecond,
	})
	if r.Aborted == 0 {
		t.Fatal("aborts unrecorded")
	}
	rate := r.AbortRate()
	if rate < 10 || rate > 40 {
		t.Fatalf("abort rate %.1f%%, want ≈25%%", rate)
	}
	if r.AbortBy["read-write-conflict"] != r.Aborted {
		t.Fatalf("decomposition %v does not match %d", r.AbortBy, r.Aborted)
	}
}

func TestRunMaxTxsCap(t *testing.T) {
	sys := &stubSystem{}
	r := Run(sys, sources(2), Options{
		Workers:  2,
		Duration: 500 * time.Millisecond,
		MaxTxs:   50,
	})
	if got := r.Committed + r.Aborted + r.Errors; got > 50 {
		t.Fatalf("measured %d > cap 50", got)
	}
}

func TestAbortRateEmpty(t *testing.T) {
	var r Report
	if r.AbortRate() != 0 {
		t.Fatal("empty report abort rate nonzero")
	}
}

func TestPreload(t *testing.T) {
	sys := &stubSystem{}
	client := cryptoutil.MustNewSigner("c")
	txs := make([]*txn.Tx, 100)
	for i := range txs {
		tx, err := txn.Sign(client, txn.Invocation{Contract: "kv", Method: "put",
			Args: [][]byte{[]byte{byte(i)}, []byte("v")}})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	if err := Preload(sys, txs, 8); err != nil {
		t.Fatal(err)
	}
	if sys.count.Load() != 100 {
		t.Fatalf("preloaded %d, want 100", sys.count.Load())
	}
}

// errSystem fails every execution with an infrastructure error.
type errSystem struct{ stubSystem }

var errBoom = errors.New("boom")

func (e *errSystem) Execute(t *txn.Tx) system.Result {
	return system.ExecuteViaSubmit(e, t)
}

func (e *errSystem) Submit(ctx context.Context, _ *txn.Tx) (*system.Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.count.Add(1)
	h := new(system.Handle)
	h.Resolve(system.Result{Err: errBoom})
	return h, nil
}

func TestPreloadSurfacesError(t *testing.T) {
	client := cryptoutil.MustNewSigner("c")
	tx, _ := txn.Sign(client, txn.Invocation{Contract: "kv", Method: "put",
		Args: [][]byte{[]byte("k"), []byte("v")}})
	err := Preload(&errSystem{}, []*txn.Tx{tx}, 2)
	if err == nil {
		t.Fatal("preload error swallowed")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("joined error %v does not wrap the worker failure", err)
	}
}

func TestPreloadStopsEarlyOnFailure(t *testing.T) {
	sys := &errSystem{}
	client := cryptoutil.MustNewSigner("c")
	txs := make([]*txn.Tx, 1000)
	for i := range txs {
		tx, err := txn.Sign(client, txn.Invocation{Contract: "kv", Method: "put",
			Args: [][]byte{[]byte{byte(i)}, []byte("v")}})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	if err := Preload(sys, txs, 4); err == nil {
		t.Fatal("preload error swallowed")
	}
	// Every worker fails on its first transaction and the shared stop flag
	// halts the rest of each chunk: executions stay near worker count.
	if got := sys.count.Load(); got > 8 {
		t.Fatalf("executed %d transactions after failure, want early stop", got)
	}
}

func TestSliceSource(t *testing.T) {
	client := cryptoutil.MustNewSigner("c")
	tx, _ := txn.Sign(client, txn.Invocation{Contract: "kv", Method: "get",
		Args: [][]byte{[]byte("k")}})
	s := NewSliceSource([]*txn.Tx{tx})
	if got, err := s.Next(); err != nil || got != tx {
		t.Fatalf("Next = %v, %v", got, err)
	}
	if _, err := s.Next(); err == nil {
		t.Fatal("exhausted source kept producing")
	}
}

func TestRunErrorsCountedSeparately(t *testing.T) {
	r := Run(&errSystem{}, sources(1), Options{Workers: 1, Duration: 100 * time.Millisecond})
	if r.Errors == 0 {
		t.Fatal("errors unrecorded")
	}
	if r.Aborted != 0 {
		t.Fatal("errors miscounted as aborts")
	}
}

func TestRunElapsedCoversLateSamples(t *testing.T) {
	// An 80ms service time against a 100ms window guarantees the last
	// transaction starts before the deadline and finishes well after it.
	// The sample is recorded, so the TPS denominator must stretch with it
	// instead of being clamped to Duration.
	sys := &stubSystem{latency: 80 * time.Millisecond}
	opt := Options{Workers: 1, Duration: 100 * time.Millisecond}
	r := Run(sys, sources(1), opt)
	if r.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if r.Elapsed <= opt.Duration {
		t.Fatalf("Elapsed = %v clamped to Duration %v despite late samples", r.Elapsed, opt.Duration)
	}
	if want := float64(r.Committed) / r.Elapsed.Seconds(); r.TPS != want {
		t.Fatalf("TPS %v inconsistent with Committed/Elapsed %v", r.TPS, want)
	}
}

// TestMergeShardsMatchesSequentialReference checks that merging per-worker
// shards reproduces exactly what a single-threaded run recording the same
// samples into one shard would report.
func TestMergeShardsMatchesSequentialReference(t *testing.T) {
	outcomes := []system.Result{
		{Committed: true},
		{Reason: occ.ReadWriteConflict},
		{Committed: true},
		{Err: errors.New("infra"), Reason: occ.OK},
		{Reason: occ.WriteWriteConflict},
	}
	client := cryptoutil.MustNewSigner("c")
	base := time.Now()
	reference := newShard()
	workers := make([]*shard, 4)
	for i := range workers {
		workers[i] = newShard()
	}
	for i := 0; i < 1000; i++ {
		tx, err := txn.Sign(client, txn.Invocation{Contract: "kv", Method: "put",
			Args: [][]byte{[]byte("k"), []byte("v")}})
		if err != nil {
			t.Fatal(err)
		}
		res := outcomes[i%len(outcomes)]
		service := time.Duration(i+1) * time.Microsecond
		end := base.Add(time.Duration(i) * time.Millisecond)
		reference.record(tx, res, service, end)
		workers[i%len(workers)].record(tx, res, service, end)
	}
	opt := Options{Workers: 4}.withDefaults()
	got := buildReport("stub", opt, base, 0, workers)
	want := buildReport("stub", opt, base, 0, []*shard{reference})
	if got.Committed != want.Committed || got.Aborted != want.Aborted || got.Errors != want.Errors {
		t.Fatalf("counts diverge: got %d/%d/%d, want %d/%d/%d",
			got.Committed, got.Aborted, got.Errors, want.Committed, want.Aborted, want.Errors)
	}
	if got.Latency != want.Latency {
		t.Fatalf("latency snapshots diverge: got %+v, want %+v", got.Latency, want.Latency)
	}
	if got.Elapsed != want.Elapsed {
		t.Fatalf("elapsed diverges: got %v, want %v", got.Elapsed, want.Elapsed)
	}
	for reason, n := range want.AbortBy {
		if got.AbortBy[reason] != n {
			t.Fatalf("abort decomposition diverges for %s: got %d, want %d", reason, got.AbortBy[reason], n)
		}
	}
}

// TestRunConcurrencyClean hammers both modes with many workers on a no-op
// system; run with -race in CI, it proves the hot path shares no mutable
// state across workers.
func TestRunConcurrencyClean(t *testing.T) {
	for _, mode := range []Mode{ClosedLoop, OpenLoop} {
		r := Run(&stubSystem{}, sources(16), Options{
			Workers:     16,
			Duration:    150 * time.Millisecond,
			Mode:        mode,
			TargetRate:  20_000,
			MaxInFlight: 64,
		})
		if r.Committed == 0 {
			t.Fatalf("%v: nothing committed", mode)
		}
		if r.Latency.Count != r.Committed {
			t.Fatalf("%v: latency count %d != committed %d", mode, r.Latency.Count, r.Committed)
		}
	}
}

// BenchmarkRunScaling measures harness throughput on a no-op system at
// growing worker counts: with per-worker shards the tps metric should
// scale with available cores instead of flattening on a shared lock.
// Each worker replays its own pre-signed transaction so the benchmark
// exercises the record path, not signature generation.
func BenchmarkRunScaling(b *testing.B) {
	client := cryptoutil.MustNewSigner("c")
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srcs := make([]TxSource, workers)
			for i := range srcs {
				tx, err := txn.Sign(client, txn.Invocation{Contract: "kv", Method: "put",
					Args: [][]byte{[]byte("k"), []byte("v")}})
				if err != nil {
					b.Fatal(err)
				}
				srcs[i] = FuncSource(func() (*txn.Tx, error) { return tx, nil })
			}
			var total float64
			for i := 0; i < b.N; i++ {
				r := Run(&stubSystem{}, srcs, Options{
					Workers:  workers,
					Duration: 100 * time.Millisecond,
				})
				total += r.TPS
			}
			b.ReportMetric(total/float64(b.N), "tps")
		})
	}
}

// shedSystem rejects the first rejectN submissions with the admission
// error, then commits everything.
type shedSystem struct {
	mu      sync.Mutex
	rejectN int
}

func (s *shedSystem) Name() string { return "shed" }

func (s *shedSystem) Execute(t *txn.Tx) system.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rejectN > 0 {
		s.rejectN--
		return system.Result{Err: fmt.Errorf("front door full: %w", ingress.ErrOverloaded)}
	}
	return system.Result{Committed: true}
}

func (s *shedSystem) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	h := new(system.Handle)
	h.Resolve(s.Execute(t))
	return h, nil
}

func (s *shedSystem) Close() {}

func TestRunRetriesSheds(t *testing.T) {
	// 5 total rejections against a 5-deep budget: however the two workers
	// interleave, no single transaction can see more than 5 rejections,
	// so every transaction must eventually commit.
	sys := &shedSystem{rejectN: 5}
	r := Run(sys, sources(2), Options{
		Workers:      2,
		Duration:     400 * time.Millisecond,
		MaxTxs:       60,
		Retries:      5,
		RetryBackoff: time.Millisecond,
	})
	if r.Retries == 0 {
		t.Fatal("no retries recorded despite rejections")
	}
	if r.Sheds != 0 {
		t.Fatalf("%d sheds leaked through a 5-deep retry budget", r.Sheds)
	}
	if r.Errors != 0 {
		t.Fatalf("%d errors recorded, want 0", r.Errors)
	}
	if r.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestRunRetryBudgetExhausted(t *testing.T) {
	sys := &shedSystem{rejectN: 1 << 30} // reject everything
	r := Run(sys, sources(1), Options{
		Workers:      1,
		Duration:     80 * time.Millisecond,
		MaxTxs:       4,
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	if r.Committed != 0 {
		t.Fatalf("%d commits from an always-rejecting system", r.Committed)
	}
	if r.Sheds == 0 {
		t.Fatal("exhausted retry budget recorded no sheds")
	}
	if r.Retries != 2*r.Sheds {
		t.Fatalf("retries = %d, want 2 per shed (%d sheds)", r.Retries, r.Sheds)
	}
}
