// Package system defines the driver-facing contract implemented by every
// modelled transactional system — the two blockchains (Fabric, Quorum),
// the two databases (TiDB, etcd), the sharded systems (AHL, Spanner-like),
// and the hybrid prototypes. The benchmark harness in internal/bench
// drives anything satisfying System, which is what lets the paper's
// experiments compare them on identical workloads.
//
// It also holds the two replica runtimes the systems share: Replica under
// the ledger side's peers and nodes, and Group — one raft-replicated state
// machine, applying every request once through the exactly-once primitive
// of consensus/once.go, which the shared log rides too — under etcd, TiDB's
// regions and Spanner's shards.
package system

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dichotomy/internal/consensus"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/txn"
)

// Result is the outcome of one transaction.
//
// The Err-vs-Reason contract: Reason classifies transaction-level
// verdicts the system itself reached — occ.OK on commit, an abort reason
// (stale read, write conflict, …) otherwise — while Err carries
// infrastructure failures: timeouts, stopped services, storage errors,
// and admission rejections. A Result with a non-nil Err and Reason ==
// occ.OK means the transaction never received a verdict; in particular,
// admission-control rejections from the ingress front door satisfy
// errors.Is(Err, ingress.ErrOverloaded) and mean the transaction was
// never executed, so the client may safely retry it.
type Result struct {
	// Committed reports whether the transaction's effects are durable.
	Committed bool
	// Reason classifies aborts (occ.OK when committed).
	Reason occ.AbortReason
	// Err carries infrastructure errors (not transaction aborts).
	Err error
	// Value holds a query result, when the request was a read.
	Value []byte
}

// System is a running transactional system under benchmark.
//
// Submit is the primary entry point; Execute is a thin Submit+Wait
// wrapper kept for the closed-loop harness and callers that want the
// blocking shape. Result's Err-vs-Reason contract (see Result) is shared
// by both paths.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Execute runs tx to completion — commit or abort — and returns the
	// outcome. Safe for concurrent use; the harness runs many clients.
	Execute(tx *txn.Tx) Result
	// Submit enqueues tx for asynchronous execution and returns a Handle
	// resolving to its outcome. A non-nil error means the transaction was
	// not accepted — a cancelled context, a closed system, or an
	// admission rejection (ingress.ErrOverloaded) — and never ran.
	// Every ledger system (Fabric, Quorum, Veritas, BigchainDB) returns
	// the pending Handle to a concurrent submitter of one content-identical
	// transaction, on the mempool-fed path and the direct one alike: it
	// runs once and every caller gets its one result.
	Submit(ctx context.Context, tx *txn.Tx) (*Handle, error)
	// Close shuts the system down.
	Close()
}

// Submitter is the Submit capability alone — what ExecuteViaSubmit needs.
type Submitter interface {
	Submit(ctx context.Context, tx *txn.Tx) (*Handle, error)
}

// Handle is the pending outcome of one submitted transaction. A handle
// supports any number of waiters — a ledger system's pending table (the
// ingress mempool's, or Pending on the direct path) hands the same handle
// to every submitter of a content-identical transaction — and is resolved
// exactly once; later Resolve calls are no-ops.
type Handle struct {
	mu       sync.Mutex
	resolved bool
	result   Result
	// waiters starts out backed by first: almost every handle has one
	// waiter, which so costs no slice.
	waiters []chan Result
	first   [1]chan Result
}

// NewHandle returns an unresolved handle.
func NewHandle() *Handle {
	h := &Handle{}
	h.waiters = h.first[:0]
	return h
}

// Resolve delivers the outcome. The first call wins; every channel
// handed out by Done receives it, and later Done/Wait calls observe it
// immediately.
func (h *Handle) Resolve(r Result) {
	h.mu.Lock()
	if h.resolved {
		h.mu.Unlock()
		return
	}
	h.resolved = true
	h.result = r
	ws := h.waiters
	h.waiters = nil
	h.mu.Unlock()
	for _, ch := range ws {
		ch <- r // cap 1, one per Done call: never blocks
	}
}

// Done returns a channel that receives the outcome once resolved. Each
// call returns a fresh buffered channel, so multiple waiters (and
// select-based callers that abandon a wait) never steal each other's
// delivery.
func (h *Handle) Done() <-chan Result {
	ch := make(chan Result, 1)
	h.mu.Lock()
	if h.resolved {
		ch <- h.result
	} else {
		h.waiters = append(h.waiters, ch)
	}
	h.mu.Unlock()
	return ch
}

// Wait blocks until the outcome or ctx is done; cancellation returns a
// Result carrying ctx.Err() (the transaction may still commit later).
func (h *Handle) Wait(ctx context.Context) Result {
	select {
	case r := <-h.Done():
		return r
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	}
}

// ExecuteViaSubmit is the canonical blocking Execute implementation:
// Submit, then Wait without a deadline. Every system's Execute is this
// thin wrapper, so the closed-loop harness and the asynchronous path
// exercise identical machinery.
func ExecuteViaSubmit(s Submitter, tx *txn.Tx) Result {
	h, err := s.Submit(context.Background(), tx)
	if err != nil {
		return Result{Err: err}
	}
	return h.Wait(context.Background())
}

// Blocking is System's Execute and Submit for a system whose one execution
// path blocks (it has no mempool-fed path); the system embeds it. Submit
// starts that path on its own goroutine, Execute is Submit then Wait.
type Blocking struct {
	run func(tx *txn.Tx) Result
}

// NewBlocking returns the Execute/Submit pair over the blocking path run.
func NewBlocking(run func(tx *txn.Tx) Result) Blocking { return Blocking{run: run} }

// Execute implements System as the thin Submit+Wait wrapper.
func (b Blocking) Execute(tx *txn.Tx) Result { return ExecuteViaSubmit(b, tx) }

// Submit implements System: run(tx) starts on its own goroutine, and its
// result resolves the returned handle. A cancelled ctx is refused before
// run starts.
func (b Blocking) Submit(ctx context.Context, tx *txn.Tx) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := NewHandle()
	go func() { h.Resolve(b.run(tx)) }()
	return h, nil
}

// EncodeHandle encodes id as an 8-byte big-endian consensus payload. No
// system passes payloads by handle any more; the benchmark's consensus and
// shared-log probes use it as a fixed-size record.
func EncodeHandle(id uint64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 0, 8), id) }

// Pending is the ledger side's direct-path in-flight table: one pending
// Handle per submitted transaction, keyed by its content-hash id, which the
// seal path resolves. It keeps the ingress mempool's duplicate rule — a
// content-identical submission that arrives while the first is pending
// attaches to its handle, runs nothing, and gets that one result — so both
// paths answer a repeated transaction alike. (The database side's in-flight
// table is Replicator's, keyed by the request id the log carries.)
type Pending struct {
	mu  sync.Mutex
	m   map[cryptoutil.Hash]pending
	run Direct
	// timeout bounds await; tests shorten it to reach the expiry.
	timeout    time.Duration
	errTimeout error
}

// pending is one open entry: its handle, and the trace of the submission
// that opened it, which Seal records the resolving replica's phase on.
type pending struct {
	h     *Handle
	trace *metrics.Trace
}

// Direct is a ledger system's direct path for one submitted transaction,
// run with its entry open: it returns t's outcome, and once it has handed
// t on it calls await to wait for the seal path.
type Direct func(t *txn.Tx, await func() Result) Result

// commitTimeout is how long a direct path waits for the commit pipeline to
// answer before giving the client an error.
const commitTimeout = 60 * time.Second

// NewPending returns an empty table over the direct path run, whose commit
// timeout answers with the error text timeout.
func NewPending(timeout string, run Direct) *Pending {
	return &Pending{m: make(map[cryptoutil.Hash]pending), run: run, timeout: commitTimeout, errTimeout: errors.New(timeout)}
}

// Open returns the pending handle for id and whether this call opened it;
// false means a submission of the same content is pending and the caller
// has attached to its handle.
func (p *Pending) Open(id cryptoutil.Hash) (*Handle, bool) { return p.open(id, nil) }

// open is Open for a submission whose trace Seal records on.
func (p *Pending) open(id cryptoutil.Hash, trace *metrics.Trace) (*Handle, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.m[id]; ok {
		return e.h, false
	}
	h := NewHandle()
	p.m[id] = pending{h: h, trace: trace}
	return h, true
}

// Resolve answers every caller attached to id's entry and closes it, so a
// later submission of the same content is a new transaction. An id with no
// entry (resolved, expired or never opened) is a no-op.
func (p *Pending) Resolve(id cryptoutil.Hash, r Result) { p.Seal(id, r, "", 0) }

// Seal is Resolve for a seal path: when phase is not empty, d — what the
// resolving replica measured for the transaction — goes on the submitted
// transaction's trace before any caller is answered. Only the call that
// closes the entry records, so a trace holds the seal-side phases of one
// replica, the first to resolve.
func (p *Pending) Seal(id cryptoutil.Hash, r Result, phase string, d time.Duration) {
	p.mu.Lock()
	e, ok := p.m[id]
	p.mu.Unlock()
	if ok && p.take(id, e.h) {
		if phase != "" {
			e.trace.Observe(phase, d)
		}
		e.h.Resolve(r)
	}
}

// take closes id's entry if it is still h, and reports whether it was: h
// is then unresolved, and the caller's to resolve.
func (p *Pending) take(id cryptoutil.Hash, h *Handle) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ok := p.m[id].h == h
	if ok {
		delete(p.m, id)
	}
	return ok
}

// Submit opens t's entry and, when this call opened it, runs the direct
// path on its own goroutine and resolves the entry with what it returns,
// so every early exit answers all attached callers. A duplicate gets the
// pending handle and runs nothing; a cancelled ctx is refused.
func (p *Pending) Submit(ctx context.Context, t *txn.Tx) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, opened := p.open(t.ID, t.Trace)
	if opened {
		go func() {
			r := p.run(t, func() Result { return p.await(t.ID, h) })
			if p.take(t.ID, h) {
				h.Resolve(r)
			}
		}()
	}
	return h, nil
}

// await waits for the seal path to resolve h, the handle Open gave for id.
// When the commit timeout passes first, it answers every attached caller
// with the timeout error and counts the expiry in the census; a Resolve
// after that finds no one.
func (p *Pending) await(id cryptoutil.Hash, h *Handle) Result {
	done := h.Done()
	select {
	case r := <-done:
		return r
	case <-time.After(p.timeout):
	}
	if p.take(id, h) {
		giveUps.Add(1)
		h.Resolve(Result{Err: p.errTimeout})
	}
	return <-done
}

// The replicate-and-wait cadence every consensus-backed write path
// shares: back off 1 ms while no replica accepts a proposal, give up after
// 30 s. Re-proposal is the proposer's Resend lap (consensus.Flight).
const (
	replicateBackoff  = time.Millisecond
	replicateDeadline = 30 * time.Second
)

// deadlineTimers recycles the timers Call.Wait waits out its deadline on,
// so the steady state allocates none.
var deadlineTimers = sync.Pool{New: func() any { return time.NewTimer(replicateDeadline) }}

// resultChans recycles the channels Replicator's waiters are resolved on.
// A channel goes back only once nothing can send on it again: its one
// result has been received, or its waiter was taken out of the in-flight
// table by the receiver itself.
var resultChans = sync.Pool{New: func() any { return make(chan Result, 1) }}

// Replicator is the client half of "sequence a command through a
// consensus group and wait until a replica has applied it": the in-flight
// table of the exactly-once primitive (consensus/once.go), whose waiters
// the apply path resolves, and the propose-and-wait call in between —
// Start, then Call.Wait. A Group runs the table's Resend lap; a Replicator
// alone proposes once.
type Replicator struct {
	flight consensus.Flight[chan Result]
	// Deadline bounds one call, leaderless back-off and apply wait
	// together. Tests shorten it to reach the give-up paths.
	Deadline time.Duration

	errLeaderless, errTimeout error
}

// NewReplicator returns a Replicator whose calls report the error text
// leaderless when no replica accepted a proposal before the deadline and
// timeout when an accepted one was not applied by then.
func NewReplicator(leaderless, timeout string) *Replicator {
	return &Replicator{
		Deadline:      replicateDeadline,
		errLeaderless: errors.New(leaderless),
		errTimeout:    errors.New(timeout),
	}
}

// Resolve delivers the apply outcome of request id. Only the first
// application of a request finds a waiter; replicas that apply it later,
// and duplicate log entries, resolve no one.
func (rp *Replicator) Resolve(id uint64, r Result) {
	if done, ok := rp.flight.Finish(id); ok {
		done <- r // cap 1, and Finish hands the waiter out once: never blocks
	}
}

// Do is Start(entry, propose).Wait(): one command, proposed and waited for.
func (rp *Replicator) Do(entry []byte, propose func(entry []byte) bool) Result {
	return rp.Start(entry, propose).Wait()
}

// Call is one request Start has issued: accepted by a replica, or given up
// leaderless. It is a small value with no allocation of its own; Wait it
// exactly once, or its channel and its in-flight entry are never returned.
type Call struct {
	rp       *Replicator
	id       uint64
	done     chan Result
	deadline time.Time
	// leaderless is set when no replica accepted the entry by the deadline:
	// Wait then gives up at once.
	leaderless bool
}

// Start issues entry into the in-flight table — writing the request id and
// low-water mark into its first consensus.Header bytes — and offers it
// through propose, which reports whether a replica accepted it, backing off
// while none does. It returns once a replica has accepted it, or once the
// deadline passed with none doing so; the apply wait is the Call's. Many
// calls started before any is waited run their rounds side by side.
func (rp *Replicator) Start(entry []byte, propose func(entry []byte) bool) Call {
	done := resultChans.Get().(chan Result)
	c := Call{rp: rp, id: rp.flight.Issue(entry, done), done: done, deadline: time.Now().Add(rp.Deadline)}
	for !propose(entry) {
		if time.Now().After(c.deadline) {
			c.leaderless = true
			return c
		}
		//lint:allow sleepyloop bounded retry backoff while the group re-elects
		time.Sleep(replicateBackoff)
	}
	rp.flight.Accepted(c.id)
	return c
}

// Wait blocks until Resolve of the call's id or the deadline Start set,
// whichever comes first. Giving up returns a Result whose Err is one of the
// two errors the Replicator was built with.
func (c Call) Wait() Result {
	if c.leaderless {
		return c.rp.giveUp(c.id, c.done, c.rp.errLeaderless)
	}
	timer := deadlineTimers.Get().(*time.Timer)
	timer.Reset(time.Until(c.deadline))
	defer func() {
		timer.Stop()
		deadlineTimers.Put(timer)
	}()
	select {
	case r := <-c.done:
		resultChans.Put(c.done)
		return r
	case <-timer.C:
		return c.rp.giveUp(c.id, c.done, c.rp.errTimeout)
	}
}

// giveUp takes id out of flight and answers err — unless a Resolve took it
// first, whose result is then on its way and is the answer instead. Either
// way nothing sends on done afterwards, so it is recycled.
func (rp *Replicator) giveUp(id uint64, done chan Result, err error) Result {
	r := Result{Err: err}
	if _, ok := rp.flight.Finish(id); ok {
		giveUps.Add(1)
	} else {
		r = <-done
	}
	resultChans.Put(done)
	return r
}

// giveUps is the timeout census: every direct-path commit timeout that
// answered its callers (Pending.await) and every Replicator call that gave
// up at its deadline, process-wide. A test passes by a result, never by
// waiting out a timer, so the test binaries of both runtimes' packages
// fail when it is not zero at exit (CensusMain).
var giveUps atomic.Int64

// CountGiveUps runs f, a test of the give-up paths, and returns how many
// give-ups it caused, taking them out of the census; the test asserts the
// number it expects.
func CountGiveUps(f func()) int64 {
	before := giveUps.Load()
	f()
	return giveUps.Swap(before) - before
}

// CensusMain runs a test binary's tests and returns its exit code: m.Run's,
// or 1 when a test left a give-up in the census that it did not count with
// CountGiveUps. Each package's TestMain is os.Exit(system.CensusMain(m)).
func CensusMain(m interface{ Run() int }) int {
	code := m.Run()
	if n := giveUps.Load(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: timeout census: %d commit timeouts or replicate give-ups that no test expected\n", n)
		return max(code, 1)
	}
	return code
}
