package metrics

import (
	"sync"
	"testing"
	"time"

	"dichotomy/internal/israce"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 16000 {
		t.Fatalf("Load = %d, want 16000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	mean := h.Mean()
	if mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Fatalf("Mean = %v, want ~50ms", mean)
	}
	p50 := h.Percentile(50)
	if p50 < 40*time.Millisecond || p50 > 60*time.Millisecond {
		t.Fatalf("P50 = %v, want ~50ms", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 85*time.Millisecond || p99 > 115*time.Millisecond {
		t.Fatalf("P99 = %v, want ~99ms", p99)
	}
	if h.Max() < 95*time.Millisecond {
		t.Fatalf("Max = %v, want ≥ 95ms", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(99) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramZeroDuration(t *testing.T) {
	var h Histogram
	h.Record(0)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	var h Histogram
	exact := 123456 * time.Microsecond
	h.Record(exact)
	got := h.Percentile(100)
	lo := exact - exact/10
	hi := exact + exact/10
	if got < lo || got > hi {
		t.Fatalf("P100 = %v, want within 10%% of %v", got, exact)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Record(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("Count = %d, want 4000", h.Count())
	}
}

func TestSnapshot(t *testing.T) {
	var h Histogram
	h.Record(10 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Max < 9*time.Millisecond {
		t.Fatalf("unexpected snapshot %+v", s)
	}
}

func TestTracePhases(t *testing.T) {
	tr := NewTrace()
	tr.Observe(PhaseExecute, 5*time.Millisecond)
	tr.Observe(PhaseExecute, 5*time.Millisecond)
	tr.Observe(PhaseCommit, 2*time.Millisecond)
	d := tr.Durations()
	if d[PhaseExecute] != 10*time.Millisecond {
		t.Fatalf("execute = %v, want 10ms", d[PhaseExecute])
	}
	if d[PhaseCommit] != 2*time.Millisecond {
		t.Fatalf("commit = %v, want 2ms", d[PhaseCommit])
	}
}

// A trace is one allocation however many phases it records up to
// tracePhases, and keeps counting past them.
func TestTraceObserveAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	if got := testing.AllocsPerRun(100, func() {
		tr := NewTrace()
		for range tracePhases {
			tr.Observe(PhaseValidate, time.Millisecond)
		}
	}); got != 1 {
		t.Errorf("a trace of %d phases: %v allocs, want 1", tracePhases, got)
	}
	tr := NewTrace()
	for range tracePhases + 1 {
		tr.Observe(PhaseValidate, time.Millisecond)
	}
	if d := tr.Durations()[PhaseValidate]; d != (tracePhases+1)*time.Millisecond {
		t.Fatalf("%d phases of 1ms sum to %v", tracePhases+1, d)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Observe(PhaseCommit, time.Millisecond) // must not panic
	if tr.Durations() != nil {
		t.Fatal("nil trace should report nil durations")
	}
}

func TestTraceTime(t *testing.T) {
	tr := NewTrace()
	tr.Time(PhaseOrder, func() { time.Sleep(2 * time.Millisecond) })
	if tr.Durations()[PhaseOrder] < time.Millisecond {
		t.Fatal("Time did not record elapsed duration")
	}
}

func TestBreakdownMergeAndMean(t *testing.T) {
	b := NewBreakdown()
	t1 := NewTrace()
	t1.Observe(PhaseValidate, 10*time.Millisecond)
	t2 := NewTrace()
	t2.Observe(PhaseValidate, 20*time.Millisecond)
	b.Merge(t1)
	b.Merge(t2)
	b.Merge(nil)
	if got := b.Mean(PhaseValidate); got != 15*time.Millisecond {
		t.Fatalf("Mean = %v, want 15ms", got)
	}
	if b.Mean("unseen") != 0 {
		t.Fatal("unseen phase should have zero mean")
	}
}

func TestBreakdownPhasesSorted(t *testing.T) {
	b := NewBreakdown()
	b.Observe("zeta", time.Millisecond)
	b.Observe("alpha", time.Millisecond)
	phases := b.Phases()
	if len(phases) != 2 || phases[0] != "alpha" || phases[1] != "zeta" {
		t.Fatalf("Phases = %v, want [alpha zeta]", phases)
	}
	if b.String() == "" {
		t.Fatal("String should render something")
	}
}

func TestLocalHistogramMatchesHistogram(t *testing.T) {
	var atomic Histogram
	var local LocalHistogram
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i*i) * time.Microsecond
		atomic.Record(d)
		local.Record(d)
	}
	want, got := atomic.Snapshot(), local.Snapshot()
	if want != got {
		t.Fatalf("snapshots diverge: atomic %+v, local %+v", want, got)
	}
}

func TestLocalHistogramMerge(t *testing.T) {
	var whole LocalHistogram
	parts := make([]LocalHistogram, 4)
	for i := 1; i <= 400; i++ {
		d := time.Duration(i) * time.Millisecond
		whole.Record(d)
		parts[i%len(parts)].Record(d)
	}
	var merged LocalHistogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	merged.Merge(nil)
	if whole.Snapshot() != merged.Snapshot() {
		t.Fatalf("merge diverges: whole %+v, merged %+v", whole.Snapshot(), merged.Snapshot())
	}
}

func TestLocalHistogramEmpty(t *testing.T) {
	var h LocalHistogram
	if h.Mean() != 0 || h.Percentile(99) != 0 || h.Max() != 0 {
		t.Fatal("empty local histogram should report zeros")
	}
}

func TestBreakdownMergeFrom(t *testing.T) {
	a, b := NewBreakdown(), NewBreakdown()
	a.Observe(PhaseCommit, 10*time.Millisecond)
	b.Observe(PhaseCommit, 20*time.Millisecond)
	b.Observe(PhaseOrder, 4*time.Millisecond)
	a.MergeFrom(b)
	a.MergeFrom(nil)
	a.MergeFrom(a) // self-merge must be a no-op, not a deadlock
	if got := a.Mean(PhaseCommit); got != 15*time.Millisecond {
		t.Fatalf("commit mean = %v, want 15ms", got)
	}
	if got := a.Mean(PhaseOrder); got != 4*time.Millisecond {
		t.Fatalf("order mean = %v, want 4ms", got)
	}
}

func TestBucketValueMonotone(t *testing.T) {
	prev := time.Duration(-1)
	for i := 0; i < 64*16; i++ {
		v := bucketValue(i)
		if v < prev {
			t.Fatalf("bucketValue(%d) = %v < previous %v", i, v, prev)
		}
		prev = v
	}
}
