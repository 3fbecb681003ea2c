// Package metrics provides the measurement plumbing for the benchmark
// harness: lock-free counters, latency histograms with percentile queries,
// and per-transaction phase traces used to regenerate the paper's latency
// breakdown figures (Fig 8, Fig 11).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter safe for concurrent
// use. The zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram records durations in exponentially sized buckets spanning
// 1µs..~1h and supports approximate percentile queries. It is a simplified
// HDR histogram: 64 major buckets (powers of two of microseconds), each
// split into 16 linear sub-buckets, bounding relative error at ~6%.
// The zero value is ready to use and safe for concurrent Record calls.
//
// Histogram is the shared-writer variant, for recorders that cannot be
// given private state (live monitoring of a long-running component).
// Hot paths that can shard per worker should prefer LocalHistogram and
// merge once at the end — the benchmark harness does exactly that. The
// two implement the same bucket scheme and their snapshots are
// interchangeable (asserted by tests).
type Histogram struct {
	buckets [64 * 16]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // microseconds
	maxUS   atomic.Uint64
}

// bucketIndex maps a microsecond value to a histogram slot. Values below
// 16µs get exact linear buckets 0..15; above that, each power-of-two range
// is split into 16 linear sub-buckets, bounding relative error at 1/16.
func bucketIndex(us uint64) int {
	if us < 16 {
		return int(us)
	}
	major := bits.Len64(us) - 1 // ≥ 4
	sub := (us >> (uint(major) - 4)) - 16
	idx := (major-3)*16 + int(sub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

const numBuckets = 64 * 16

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	us := uint64(d / time.Microsecond)
	h.buckets[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/n) * time.Microsecond
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.maxUS.Load()) * time.Microsecond
}

// Percentile returns the approximate p-th percentile (0 < p ≤ 100).
func (h *Histogram) Percentile(p float64) time.Duration {
	return percentileOver(h.count.Load(), p, func(i int) uint64 { return h.buckets[i].Load() }, h.Max())
}

// percentileOver walks buckets (indexed by the shared bucketIndex scheme)
// until the rank for percentile p is reached; max is returned when the
// rank falls past the last bucket.
func percentileOver(total uint64, p float64, bucket func(int) uint64, max time.Duration) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += bucket(i)
		if seen >= rank {
			return bucketValue(i)
		}
	}
	return max
}

// bucketValue is the inverse of bucketIndex: the lower bound of slot idx.
func bucketValue(idx int) time.Duration {
	if idx < 16 {
		return time.Duration(idx) * time.Microsecond
	}
	group := idx/16 - 1 // 0-based group above the linear range
	sub := uint64(idx % 16)
	us := (16 + sub) << uint(group)
	if group > 38 || us > math.MaxInt64/uint64(time.Microsecond) {
		return math.MaxInt64 // beyond representable durations; clamp
	}
	return time.Duration(us) * time.Microsecond
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count          uint64
	Mean, P50, P99 time.Duration
	Max            time.Duration
}

// Snapshot returns the current summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// LocalHistogram is the unsynchronized counterpart of Histogram for
// single-goroutine accumulation: same bucket scheme and error bound, plain
// uint64 slots instead of atomics. The benchmark harness gives each worker
// one LocalHistogram and merges them after the run, keeping the record
// path free of cross-core cache traffic. The zero value is ready to use.
type LocalHistogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64 // microseconds
	maxUS   uint64
}

// Record adds one observation.
func (h *LocalHistogram) Record(d time.Duration) {
	us := uint64(d / time.Microsecond)
	h.buckets[bucketIndex(us)]++
	h.count++
	h.sum += us
	if us > h.maxUS {
		h.maxUS = us
	}
}

// Merge folds o into h. Neither histogram may be concurrently mutated.
func (h *LocalHistogram) Merge(o *LocalHistogram) {
	if o == nil {
		return
	}
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sum += o.sum
	if o.maxUS > h.maxUS {
		h.maxUS = o.maxUS
	}
}

// Count returns the number of observations.
func (h *LocalHistogram) Count() uint64 { return h.count }

// Mean returns the average observation.
func (h *LocalHistogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum/h.count) * time.Microsecond
}

// Max returns the largest observation.
func (h *LocalHistogram) Max() time.Duration {
	return time.Duration(h.maxUS) * time.Microsecond
}

// Percentile returns the approximate p-th percentile (0 < p ≤ 100).
func (h *LocalHistogram) Percentile(p float64) time.Duration {
	return percentileOver(h.count, p, func(i int) uint64 { return h.buckets[i] }, h.Max())
}

// Snapshot returns the current summary.
func (h *LocalHistogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		Max:   h.Max(),
	}
}

// Phase names shared across the systems so breakdown reports line up with
// the paper's terminology.
const (
	PhaseProposal  = "proposal"
	PhaseExecute   = "execute"
	PhaseOrder     = "order"
	PhaseValidate  = "validate"
	PhaseCommit    = "commit"
	PhaseConsensus = "consensus"
	PhaseAuth      = "auth"
	PhaseSimulate  = "simulate"
	PhaseEndorse   = "endorse"
	PhaseSQLParse  = "sql-parse"
	PhaseSQLPlan   = "sql-compile"
	PhaseStorage   = "storage-get"
)

// Trace records named phase durations for one transaction. A Trace is owned
// by a single transaction and is not safe for concurrent mutation; systems
// hand it from stage to stage along with the transaction.
//
// Observing allocates nothing up to tracePhases phases: the spans start
// out in an array inside the trace.
type Trace struct {
	mu     sync.Mutex
	phases []phaseSpan
	buf    [tracePhases]phaseSpan
}

// tracePhases is the longest trace a measured transaction records: Fabric's
// with four endorsing peers (auth, simulate and endorse on each, then
// proposal and order) and validate from the one peer that resolves it.
const tracePhases = 15

type phaseSpan struct {
	name string
	d    time.Duration
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	t := &Trace{}
	t.phases = t.buf[:0]
	return t
}

// Observe adds a completed phase duration.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, phaseSpan{name, d})
	t.mu.Unlock()
}

// Time runs fn and records its duration under name.
func (t *Trace) Time(name string, fn func()) {
	start := time.Now()
	fn()
	t.Observe(name, time.Since(start))
}

// Count returns how many spans of phase name the trace holds.
func (t *Trace) Count(name string) (n int) {
	if t != nil {
		t.mu.Lock()
		for _, p := range t.phases {
			if p.name == name {
				n++
			}
		}
		t.mu.Unlock()
	}
	return n
}

// Durations returns the accumulated duration per phase name.
func (t *Trace) Durations() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.phases))
	for _, p := range t.phases {
		out[p.name] += p.d
	}
	return out
}

// Breakdown aggregates phase durations across many transactions. Safe for
// concurrent use.
type Breakdown struct {
	mu     sync.Mutex
	totals map[string]time.Duration
	counts map[string]uint64
}

// NewBreakdown returns an empty aggregate.
func NewBreakdown() *Breakdown {
	return &Breakdown{
		totals: make(map[string]time.Duration),
		counts: make(map[string]uint64),
	}
}

// Merge folds one transaction's trace into the aggregate.
func (b *Breakdown) Merge(t *Trace) {
	if t == nil {
		return
	}
	for name, d := range t.Durations() {
		b.mu.Lock()
		b.totals[name] += d
		b.counts[name]++
		b.mu.Unlock()
	}
}

// MergeFrom folds another aggregate into b. Used by the benchmark
// harness to combine per-worker breakdowns after a run. The source is
// snapshotted before b locks, so the two mutexes are never held together
// (no lock-order inversion between concurrent cross-merges, and
// b.MergeFrom(b) is a no-op rather than a self-deadlock).
func (b *Breakdown) MergeFrom(o *Breakdown) {
	if o == nil || o == b {
		return
	}
	o.mu.Lock()
	totals := make(map[string]time.Duration, len(o.totals))
	counts := make(map[string]uint64, len(o.counts))
	for name, d := range o.totals {
		totals[name] = d
	}
	for name, n := range o.counts {
		counts[name] = n
	}
	o.mu.Unlock()

	b.mu.Lock()
	defer b.mu.Unlock()
	for name, d := range totals {
		b.totals[name] += d
	}
	for name, n := range counts {
		b.counts[name] += n
	}
}

// Observe adds a single phase measurement directly.
func (b *Breakdown) Observe(name string, d time.Duration) {
	b.mu.Lock()
	b.totals[name] += d
	b.counts[name]++
	b.mu.Unlock()
}

// Mean returns the mean duration of the named phase, or zero if unseen.
func (b *Breakdown) Mean(name string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.counts[name]
	if n == 0 {
		return 0
	}
	return b.totals[name] / time.Duration(n)
}

// Phases returns the phase names seen, sorted.
func (b *Breakdown) Phases() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.totals))
	for name := range b.totals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// String renders the breakdown as "phase=mean" pairs sorted by name.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, name := range b.Phases() {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%v", name, b.Mean(name))
	}
	return sb.String()
}
