// Package ingress is the admission front door the paper's closed-loop
// harness never needed: a bounded mempool plus an adaptive batch builder
// sitting between clients and a system's consensus pipeline.
//
// The paper's figures feed every system from closed-loop clients calling
// straight into execution, so offered load can never exceed what the
// system absorbs. A deployment serving open-loop traffic has no such
// luck: arrivals keep coming when the system slows down, and without an
// admission layer the excess queues without bound inside consensus until
// something wedges (the raft transport's bounded send queues fail fast,
// but nothing upstream of them sheds). This package turns that cliff
// into a plateau:
//
//   - Admission: Submit deduplicates by content-hash transaction id —
//     concurrent submitters of one identical transaction share a single
//     pending system.Handle, the rule system.Pending keeps on the direct
//     path — classifies into priority lanes, and
//     rejects with ErrOverloaded once the bounded pool is full, so
//     overload sheds at the door instead of inside consensus.
//   - Building: a single builder goroutine forms blocks from arrival
//     pressure. At low load it cuts small blocks immediately (latency);
//     as the pool fills the batch grows toward MaxBlock, the throughput
//     end of the blockshape sweep's size×workers×depth map.
//   - Backpressure: the sink's error return is a throttle signal — when
//     consensus pushes back (cluster.ErrBackpressure surfacing through a
//     bounded append, a leaderless interval) the builder backs off
//     exponentially, the pool fills, and new arrivals shed as retryable
//     admission errors rather than queueing without bound.
//
// What one transaction's trip through the door leaves behind is only what
// its caller keeps: the entry, which holds the caller's system.Handle in
// the same allocation. Everything else is reused. A lane keeps its
// capacity when the builder drains it. A built batch — its entries and the
// []*txn.Tx handed to the sink — goes back to a free list, its slices
// emptied, once the sink has returned and its last entry has detached
// (resolved, timed out, or swept by Close); a sink therefore copies the
// pointers it keeps, and one that kept the slice would read nil
// transactions in place of a later batch's. Commit timeouts run on one
// timer for the whole door, armed for the earliest deadline among the
// dispatched batches that still have entries pending.
package ingress

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/metrics"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// ErrOverloaded is the typed admission rejection: the mempool was full
// (or the batch builder could not hand the transaction to consensus) and
// the transaction never ran. It surfaces through system.Result.Err and
// classifies with errors.Is through any wrapping, so clients implement
// retry policies against one sentinel instead of string-matching each
// system's failure modes.
var ErrOverloaded = errors.New("ingress: overloaded")

// ErrClosed reports submission to (or pending work swept by) a closed
// front door.
var ErrClosed = errors.New("ingress: closed")

// Retryable reports whether err is a transient admission failure the
// client should back off and retry — the transaction was never executed.
func Retryable(err error) bool { return errors.Is(err, ErrOverloaded) }

// Config shapes the front door. It is the shared knob set embedded by
// fabric.Config, quorum.Config, and hybrid.VeritasConfig — one validated
// default story instead of three per-system copies.
type Config struct {
	// Capacity bounds the queued (admitted, not yet built) transactions
	// across all lanes; Submit sheds with ErrOverloaded beyond it.
	// Default 4096.
	Capacity int
	// Lanes is the number of priority lanes; the builder drains lane 0
	// first. Default 1.
	Lanes int
	// Classify maps a transaction to its lane (clamped to [0, Lanes));
	// nil admits everything to lane 0.
	Classify func(*txn.Tx) int
	// MinBlock is the batch size the builder prefers to wait for; an
	// undersized pool is still cut after BuildInterval, bounding the
	// latency cost of waiting. Default 1 — cut immediately at low load.
	MinBlock int
	// MaxBlock caps a built batch — the pressure ceiling, normally set
	// from the blockshape sweep's optimum. Default 256.
	MaxBlock int
	// BuildInterval is how long the builder lets an undersized batch
	// accumulate, and the base of its backpressure backoff. Default 1ms.
	BuildInterval time.Duration
	// CommitTimeout bounds how long a dispatched transaction may stay
	// unresolved before the front door answers its waiters with an error
	// (the direct paths' 60s commit timeout, enforced per batch).
	// Default 60s.
	CommitTimeout time.Duration
	// TimeoutSkew, when set, maps the nominal CommitTimeout to the value
	// actually armed for each dispatched batch — the seam the chaos layer
	// uses to model clock skew on the commit-timeout clock. nil is the
	// identity.
	TimeoutSkew func(time.Duration) time.Duration
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.MinBlock <= 0 {
		c.MinBlock = 1
	}
	if c.MaxBlock <= 0 {
		c.MaxBlock = 256
	}
	if c.BuildInterval <= 0 {
		c.BuildInterval = time.Millisecond
	}
	if c.CommitTimeout <= 0 {
		c.CommitTimeout = 60 * time.Second
	}
	return c
}

// Validate rejects impossible shapes after defaults are applied.
func (c Config) Validate() error {
	if c.MinBlock > c.MaxBlock {
		return fmt.Errorf("ingress: MinBlock %d > MaxBlock %d", c.MinBlock, c.MaxBlock)
	}
	if c.MaxBlock > c.Capacity {
		return fmt.Errorf("ingress: MaxBlock %d > Capacity %d", c.MaxBlock, c.Capacity)
	}
	return nil
}

// BatchFunc is a system's batch sink: it receives one built block and
// owns every transaction in it — each must eventually resolve through
// Resolve, either immediately (per-transaction admission failures) or
// later via the system's commit path. The returned error is purely a
// throttle signal (consensus pushing back); it must not leave handed
// transactions unresolved. The slice is the front door's, reused for a
// later batch once the sink has returned and every transaction in it has
// resolved: a sink copies the pointers it keeps, never the slice.
type BatchFunc func(txs []*txn.Tx) error

// Stats is a point-in-time snapshot of the front door's counters.
type Stats struct {
	// Admitted / Deduped / Shed decompose Submit calls: entered the pool,
	// attached to an already-pending identical transaction, rejected.
	Admitted uint64
	Deduped  uint64
	Shed     uint64
	// Resolved counts transactions whose outcome reached their handles.
	Resolved uint64
	// Blocks and BlockTxs count built batches and the transactions in
	// them; their ratio is the realized adaptive block size.
	Blocks   uint64
	BlockTxs uint64
	// Throttled counts builder backoffs forced by sink throttle signals.
	Throttled uint64
	// Depth is the current queued (admitted, unbuilt) transaction count.
	Depth int
	// QueueDelayP50/P99/Max summarize admission-to-build queueing delay
	// of admitted transactions — the bounded-queueing claim's evidence.
	QueueDelayP50 time.Duration
	QueueDelayP99 time.Duration
	QueueDelayMax time.Duration
}

// entry is one admitted transaction: its handle outlives the queue (it
// stays in byID until resolved, so duplicate submissions attach even
// while the transaction is in flight through consensus), and lives in the
// entry's own allocation — Submit hands out &e.h.
type entry struct {
	h   system.Handle
	tx  *txn.Tx
	enq time.Time
	// batch is the dispatched batch the builder pulled e into; nil while e
	// is queued and once it has detached. Guarded by Ingress.mu.
	batch *batch
}

// batch is one built block, from the pull that cuts it until its last entry
// detaches and it goes back to the free list. Besides byID, only the out
// list reaches a dispatched entry, so a resolved transaction is garbage at
// once, not CommitTimeout later. Fields are guarded by Ingress.mu.
type batch struct {
	entries []*entry
	txs     []*txn.Tx // what the sink is handed
	// pending counts the entries not yet detached, plus one while the
	// builder holds the batch (until the sink returns), so a batch whose
	// entries all resolve inside the sink is not reused under it.
	pending int
	// timeout and deadline are set when the sink returns.
	timeout  time.Duration
	deadline time.Time
}

// Ingress is a running front door: the bounded mempool and its builder.
type Ingress struct {
	cfg  Config
	sink BatchFunc

	mu     sync.Mutex
	lanes  [][]*entry
	byID   map[cryptoutil.Hash]*entry
	queued int
	closed bool
	// free holds batches for pull to cut into again; out holds the
	// dispatched batches with entries pending. timer is armed for armed,
	// the earliest deadline in out (zero while it is stopped).
	free  []*batch
	out   []*batch
	timer *time.Timer
	armed time.Time

	wake      chan struct{}
	stopCh    chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	admitted  metrics.Counter
	deduped   metrics.Counter
	shed      metrics.Counter
	resolved  metrics.Counter
	blocks    metrics.Counter
	blockTxs  metrics.Counter
	throttled metrics.Counter
	qdelay    metrics.Histogram
}

// New validates cfg (after defaults) and starts the builder feeding sink.
func New(cfg Config, sink BatchFunc) (*Ingress, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sink == nil {
		return nil, errors.New("ingress: nil sink")
	}
	in := &Ingress{
		cfg:    cfg,
		sink:   sink,
		lanes:  make([][]*entry, cfg.Lanes),
		byID:   make(map[cryptoutil.Hash]*entry),
		wake:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
	}
	in.timer = time.AfterFunc(time.Hour, in.expire)
	in.timer.Stop()
	in.wg.Add(1)
	go in.buildLoop()
	return in, nil
}

// Submit admits t into the pool and returns its pending handle. The pool
// is the system's one pending table while the front door is on: the sink
// registers nothing elsewhere. A transaction whose content hash is already
// pending — queued or in flight through consensus — attaches to the
// existing submission's handle: every caller observes the one result of
// one execution, as on the direct path (system.Pending). A full pool
// rejects with ErrOverloaded; a closed one with ErrClosed.
func (in *Ingress) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil, ErrClosed
	}
	if e, ok := in.byID[t.ID]; ok {
		in.mu.Unlock()
		in.deduped.Inc()
		return &e.h, nil
	}
	if in.queued >= in.cfg.Capacity {
		in.mu.Unlock()
		in.shed.Inc()
		return nil, fmt.Errorf("%w: mempool at capacity %d", ErrOverloaded, in.cfg.Capacity)
	}
	lane := 0
	if in.cfg.Classify != nil {
		lane = in.cfg.Classify(t)
		if lane < 0 {
			lane = 0
		} else if lane >= in.cfg.Lanes {
			lane = in.cfg.Lanes - 1
		}
	}
	e := &entry{tx: t, enq: time.Now()}
	in.lanes[lane] = append(in.lanes[lane], e)
	in.byID[t.ID] = e
	in.queued++
	in.mu.Unlock()
	in.admitted.Inc()
	select {
	case in.wake <- struct{}{}:
	default:
	}
	return &e.h, nil
}

// Resolve delivers the outcome for the pending transaction id to every
// caller attached to it — the one call a system's seal path makes per
// transaction (or its sink, for immediate failures). It detaches the
// entry, so a later re-submission of the same content is a genuinely new
// transaction. Ids with no pending entry are no-ops, as in system.Pending.
func (in *Ingress) Resolve(id cryptoutil.Hash, r system.Result) { in.Seal(id, r, "", 0) }

// Seal is Resolve for a seal path: when phase is not empty, d — what the
// resolving replica measured for the transaction — goes on the pooled
// transaction's trace before any caller is answered, and only from the call
// that detaches the entry, as in system.Pending.Seal.
func (in *Ingress) Seal(id cryptoutil.Hash, r system.Result, phase string, d time.Duration) {
	in.mu.Lock()
	e := in.byID[id]
	if e != nil {
		in.detach(e)
	}
	in.mu.Unlock()
	if e == nil {
		return
	}
	if phase != "" {
		e.tx.Trace.Observe(phase, d)
	}
	in.resolved.Inc()
	e.h.Resolve(r)
}

// detach takes e, the pending entry for its id, out of the pending table
// and out of its batch. The caller holds in.mu.
func (in *Ingress) detach(e *entry) {
	delete(in.byID, e.tx.ID)
	b := e.batch
	if b == nil {
		return
	}
	e.batch = nil
	if b.pending--; b.pending == 0 {
		// The builder has let go of b (it holds a count until the sink
		// returns), so b is in out.
		i := slices.Index(in.out, b)
		in.out = slices.Delete(in.out, i, i+1)
		if b.deadline.Equal(in.armed) {
			in.arm()
		}
		in.recycle(b)
	}
}

// recycle empties b's slices, keeping their capacity, and puts b on the
// free list. The caller holds in.mu, and nothing else reaches b.
func (in *Ingress) recycle(b *batch) {
	clear(b.entries)
	clear(b.txs)
	b.entries, b.txs = b.entries[:0], b.txs[:0]
	in.free = append(in.free, b)
}

// arm points the door's timer at the earliest deadline in out, or stops it
// when out is empty. The caller holds in.mu.
func (in *Ingress) arm() {
	var first time.Time
	for _, b := range in.out {
		if first.IsZero() || b.deadline.Before(first) {
			first = b.deadline
		}
	}
	if in.armed = first; first.IsZero() {
		in.timer.Stop()
	} else {
		in.timer.Reset(time.Until(first))
	}
}

// Depth returns the queued (admitted, unbuilt) transaction count.
func (in *Ingress) Depth() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.queued
}

// Stats snapshots the front door's counters.
func (in *Ingress) Stats() Stats {
	return Stats{
		Admitted:      in.admitted.Load(),
		Deduped:       in.deduped.Load(),
		Shed:          in.shed.Load(),
		Resolved:      in.resolved.Load(),
		Blocks:        in.blocks.Load(),
		BlockTxs:      in.blockTxs.Load(),
		Throttled:     in.throttled.Load(),
		Depth:         in.Depth(),
		QueueDelayP50: in.qdelay.Percentile(50),
		QueueDelayP99: in.qdelay.Percentile(99),
		QueueDelayMax: in.qdelay.Max(),
	}
}

// Close stops the builder and the commit-timeout timer and answers every
// pending handle — queued or dispatched-but-uncommitted — with ErrClosed,
// so no submitter is left blocked on a front door that no longer exists and
// no timer outlives it.
func (in *Ingress) Close() {
	in.closeOnce.Do(func() {
		close(in.stopCh)
		in.wg.Wait()
		in.mu.Lock()
		in.closed = true
		pending := make([]*entry, 0, len(in.byID))
		for _, e := range in.byID {
			pending = append(pending, e)
		}
		in.byID = make(map[cryptoutil.Hash]*entry)
		in.lanes = make([][]*entry, in.cfg.Lanes)
		in.queued = 0
		// A timer callback already under way finds nothing to expire.
		in.out, in.free = nil, nil
		in.timer.Stop()
		in.mu.Unlock()
		for _, e := range pending {
			in.resolved.Inc()
			e.h.Resolve(system.Result{Err: ErrClosed})
		}
	})
}

// oldestEnq returns the enqueue time of the oldest queued entry (ok =
// false when empty). Lane order does not matter for age: the deadline
// only needs some lower bound on how long work has waited.
func (in *Ingress) oldestEnq() (time.Time, int, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	var oldest time.Time
	found := false
	for _, lane := range in.lanes {
		if len(lane) == 0 {
			continue
		}
		if !found || lane[0].enq.Before(oldest) {
			oldest = lane[0].enq
			found = true
		}
	}
	return oldest, in.queued, found
}

// pull drains up to the adaptive target from the lanes, highest priority
// first, recording each entry's queueing delay, into a batch from the free
// list. The target is the pool occupancy clamped to [MinBlock, MaxBlock]:
// small blocks at low load, growing toward the blockshape optimum under
// pressure. What a lane keeps moves to its front, so the lane's capacity
// serves the arrivals after.
func (in *Ingress) pull() *batch {
	in.mu.Lock()
	defer in.mu.Unlock()
	target := min(in.queued, in.cfg.MaxBlock)
	if target == 0 {
		return nil
	}
	var b *batch
	if n := len(in.free); n > 0 {
		b, in.free[n-1] = in.free[n-1], nil
		in.free = in.free[:n-1]
	} else {
		b = &batch{entries: make([]*entry, 0, target), txs: make([]*txn.Tx, 0, target)}
	}
	now := time.Now()
	for l, lane := range in.lanes {
		n := min(target-len(b.txs), len(lane))
		for _, e := range lane[:n] {
			in.qdelay.Record(now.Sub(e.enq))
			e.batch = b
			b.entries = append(b.entries, e)
			b.txs = append(b.txs, e.tx)
		}
		left := copy(lane, lane[n:])
		clear(lane[left:])
		in.lanes[l] = lane[:left]
	}
	b.pending = len(b.txs) + 1 // the builder's hold, let go by dispatched
	in.queued -= len(b.txs)
	return b
}

// buildLoop is the adaptive batch builder: wait for work, give an
// undersized pool one BuildInterval to fill toward MinBlock, cut a batch
// sized by occupancy, hand it to the sink, and back off exponentially
// while the sink reports consensus pushing back.
func (in *Ingress) buildLoop() {
	defer in.wg.Done()
	var backoff time.Duration
	for {
		oldest, depth, ok := in.oldestEnq()
		if !ok {
			select {
			case <-in.stopCh:
				return
			case <-in.wake:
			}
			continue
		}
		if depth < in.cfg.MinBlock {
			// Anchor the wait on the oldest arrival, not on the last
			// wake: a trickle of arrivals must not postpone the cut
			// beyond one BuildInterval of queueing.
			wait := time.Until(oldest.Add(in.cfg.BuildInterval))
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-in.stopCh:
					t.Stop()
					return
				case <-in.wake:
					t.Stop()
					continue
				case <-t.C:
				}
			}
		}
		b := in.pull()
		if b == nil {
			continue
		}
		in.blocks.Inc()
		in.blockTxs.Add(uint64(len(b.txs)))
		err := in.sink(b.txs)
		in.dispatched(b)
		if err == nil {
			backoff = 0
			continue
		}
		// Throttle: the sink resolved (or will resolve) its transactions;
		// our job is only to slow down so admission shedding, not
		// consensus queueing, absorbs the overload. The backoff doubles
		// from one BuildInterval up to 64 of them.
		in.throttled.Inc()
		backoff = min(max(2*backoff, in.cfg.BuildInterval), 64*in.cfg.BuildInterval)
		t := time.NewTimer(backoff)
		select {
		case <-in.stopCh:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// dispatched lets go of the builder's hold on b once the sink has returned
// and starts b's commit timeout: the door's one timer answers any entry
// still pending at b's deadline with a timeout error, mirroring the direct
// paths' per-transaction 60s guard with neither a goroutine nor a timer per
// transaction or batch. A batch the sink has already resolved is reused at
// once.
func (in *Ingress) dispatched(b *batch) {
	timeout := in.cfg.CommitTimeout
	if in.cfg.TimeoutSkew != nil {
		if skewed := in.cfg.TimeoutSkew(timeout); skewed > 0 {
			timeout = skewed
		}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if b.pending--; b.pending == 0 {
		in.recycle(b)
		return
	}
	b.timeout, b.deadline = timeout, time.Now().Add(timeout)
	in.out = append(in.out, b)
	if in.armed.IsZero() || b.deadline.Before(in.armed) {
		in.armed = b.deadline
		in.timer.Reset(timeout)
	}
}

// expire is the door's timer callback: each dispatched batch whose deadline
// has passed detaches its pending entries, which are answered with a
// timeout error, and goes back to the free list; the timer is armed again
// for the earliest deadline left. A callback that runs late, or after a
// Reset, acts only on deadlines that have passed.
func (in *Ingress) expire() {
	type late struct {
		e       *entry
		timeout time.Duration
	}
	var answer []late
	now := time.Now()
	in.mu.Lock()
	kept := in.out[:0]
	for _, b := range in.out {
		if b.deadline.After(now) {
			kept = append(kept, b)
			continue
		}
		for _, e := range b.entries {
			// Still pending: not detached, and not resolved while it was
			// queued, after which a resubmission may hold its id.
			if e.batch == b && in.byID[e.tx.ID] == e {
				delete(in.byID, e.tx.ID)
				e.batch = nil
				answer = append(answer, late{e, b.timeout})
			}
		}
		in.recycle(b)
	}
	clear(in.out[len(kept):])
	in.out = kept
	in.arm()
	in.mu.Unlock()
	for _, a := range answer {
		in.resolved.Inc()
		a.e.h.Resolve(system.Result{Err: fmt.Errorf("ingress: commit timeout after %v", a.timeout)})
	}
}

// Door is where a ledger system's submitted updates are pending, in one
// table per transaction: the front door's mempool when the system runs
// one, otherwise the direct path's system.Pending. Resolve and Seal are
// that table's, picked once here: Seal is the one call a seal path makes
// per transaction, Resolve answers the failures before it.
type Door struct {
	Resolve func(cryptoutil.Hash, system.Result)
	Seal    func(id cryptoutil.Hash, r system.Result, phase string, d time.Duration)
	in      *Ingress        // nil without a front door
	pending *system.Pending // nil with one
}

// NewDoor opens a front door feeding sink when cfg is set, and otherwise
// the table of the direct path direct, whose commit timeout answers with
// the error text timeout.
func NewDoor(cfg *Config, sink BatchFunc, direct system.Direct, timeout string) (*Door, error) {
	if cfg == nil {
		p := system.NewPending(timeout, direct)
		return &Door{Resolve: p.Resolve, Seal: p.Seal, pending: p}, nil
	}
	in, err := New(*cfg, sink)
	if err != nil {
		return nil, err
	}
	return &Door{Resolve: in.Resolve, Seal: in.Seal, in: in}, nil
}

// Submit admits t at the front door, or opens t's entry in the direct
// path's table and runs the direct path on its own goroutine
// (system.Pending).
func (d *Door) Submit(ctx context.Context, t *txn.Tx) (*system.Handle, error) {
	if d.in != nil {
		return d.in.Submit(ctx, t)
	}
	return d.pending.Submit(ctx, t)
}

// Stats snapshots the front door's counters; ok is false without one.
func (d *Door) Stats() (Stats, bool) {
	if d.in == nil {
		return Stats{}, false
	}
	return d.in.Stats(), true
}

// Close closes the front door, answering every handle it holds; the
// direct path's table needs no closing. A nil Door is a no-op, for a
// system whose construction failed before opening it.
func (d *Door) Close() {
	if d != nil && d.in != nil {
		d.in.Close()
	}
}
