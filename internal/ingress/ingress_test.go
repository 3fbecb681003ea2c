package ingress

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

var testClient = cryptoutil.MustNewSigner("ingress-test")

// mkTx signs a distinct put; equal (k, v) pairs produce equal content
// hashes, which is exactly what the dedup tests rely on.
func mkTx(t testing.TB, k, v string) *txn.Tx {
	t.Helper()
	tx, err := txn.Sign(testClient, txn.Invocation{
		Contract: "kv", Method: "put",
		Args: [][]byte{[]byte(k), []byte(v)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// commitSink resolves everything it is handed as committed.
func commitSink(in **Ingress) BatchFunc {
	return func(txs []*txn.Tx) error {
		for _, tx := range txs {
			(*in).Resolve(tx.ID, system.Result{Committed: true})
		}
		return nil
	}
}

func TestSubmitResolvesThroughSink(t *testing.T) {
	var in *Ingress
	var err error
	in, err = New(Config{}, commitSink(&in))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	h, err := in.Submit(context.Background(), mkTx(t, "k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := h.Wait(ctx)
	if !r.Committed || r.Err != nil {
		t.Fatalf("r = %+v", r)
	}
	st := in.Stats()
	if st.Admitted != 1 || st.Resolved != 1 || st.Blocks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitContextError(t *testing.T) {
	var in *Ingress
	var err error
	in, err = New(Config{}, commitSink(&in))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.Submit(ctx, mkTx(t, "k", "v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// gatedSink blocks the builder inside the sink until released, keeping
// subsequent admissions queued so tests control exactly what the next
// batch contains.
type gatedSink struct {
	mu      sync.Mutex
	batches [][]*txn.Tx
	gate    chan struct{}
	in      *Ingress
	resolve bool
}

func (g *gatedSink) sink(txs []*txn.Tx) error {
	<-g.gate
	g.mu.Lock()
	g.batches = append(g.batches, slices.Clone(txs)) // the door reuses txs
	g.mu.Unlock()
	if g.resolve {
		for _, tx := range txs {
			g.in.Resolve(tx.ID, system.Result{Committed: true})
		}
	}
	return nil
}

// hold submits one plug transaction and waits until the builder is
// parked inside the sink on it, so every following Submit stays queued.
func (g *gatedSink) hold(t *testing.T) {
	t.Helper()
	if _, err := g.in.Submit(context.Background(), mkTx(t, "plug", "plug")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.in.Depth() != 0 || g.in.Stats().Blocks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("builder never picked up the plug")
		}
		time.Sleep(time.Millisecond)
	}
}

func newGated(t *testing.T, cfg Config, resolve bool) *gatedSink {
	t.Helper()
	g := &gatedSink{gate: make(chan struct{}), resolve: resolve}
	in, err := New(cfg, g.sink)
	if err != nil {
		t.Fatal(err)
	}
	g.in = in
	return g
}

func TestDedupSharesOneHandle(t *testing.T) {
	g := newGated(t, Config{}, true)
	defer g.in.Close()
	g.hold(t)

	// Two submissions with identical content while the first is queued:
	// one admission, one dedup, one shared handle — the regression for
	// the per-system waiter-map collision.
	a := mkTx(t, "same", "content")
	b := mkTx(t, "same", "content")
	if a.ID != b.ID {
		t.Fatal("content hashes differ for identical invocations")
	}
	ha, err := g.in.Submit(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := g.in.Submit(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatal("duplicate submission did not attach to the pending handle")
	}
	st := g.in.Stats()
	if st.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1", st.Deduped)
	}

	close(g.gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ra, rb := ha.Wait(ctx), hb.Wait(ctx)
	if !ra.Committed || !rb.Committed {
		t.Fatalf("ra = %+v, rb = %+v", ra, rb)
	}
	// The sink saw the transaction exactly once.
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := 0
	for _, batch := range g.batches {
		for _, tx := range batch {
			if tx.ID == a.ID {
				seen++
			}
		}
	}
	if seen != 1 {
		t.Fatalf("deduplicated transaction executed %d times", seen)
	}
}

func TestDedupSpansInFlight(t *testing.T) {
	// resolve=false: the batch is handed to consensus but not yet
	// committed. A duplicate arriving now must still attach.
	g := newGated(t, Config{}, false)
	defer g.in.Close()
	g.hold(t)

	dup, err := g.in.Submit(context.Background(), mkTx(t, "plug", "plug"))
	if err != nil {
		t.Fatal(err)
	}
	if g.in.Stats().Deduped != 1 {
		t.Fatalf("in-flight duplicate not deduplicated: %+v", g.in.Stats())
	}
	g.in.Resolve(mkTx(t, "plug", "plug").ID, system.Result{Committed: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r := dup.Wait(ctx); !r.Committed {
		t.Fatalf("r = %+v", r)
	}
	close(g.gate)
}

func TestCapacityShedsTyped(t *testing.T) {
	g := newGated(t, Config{Capacity: 4, MaxBlock: 2}, true)
	defer g.in.Close()
	g.hold(t)

	var shedErr error
	for i := 0; i < 8; i++ {
		_, err := g.in.Submit(context.Background(), mkTx(t, fmt.Sprintf("k%d", i), "v"))
		if err != nil {
			shedErr = err
			break
		}
	}
	if shedErr == nil {
		t.Fatal("full pool admitted more than its capacity")
	}
	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("shed error %v is not ErrOverloaded", shedErr)
	}
	if !Retryable(shedErr) {
		t.Fatal("admission shed not classified retryable")
	}
	if g.in.Stats().Shed == 0 {
		t.Fatal("Shed counter unmoved")
	}
	close(g.gate)
}

func TestLanePriority(t *testing.T) {
	g := newGated(t, Config{
		Lanes: 2,
		Classify: func(tx *txn.Tx) int {
			if tx.Invocation.Args[1][0] == 'h' {
				return 0
			}
			return 1
		},
	}, true)
	defer g.in.Close()
	g.hold(t)

	// Low-priority work arrives first, high-priority second; the next
	// batch must still lead with lane 0.
	for i := 0; i < 3; i++ {
		if _, err := g.in.Submit(context.Background(), mkTx(t, fmt.Sprintf("lo%d", i), "low")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := g.in.Submit(context.Background(), mkTx(t, fmt.Sprintf("hi%d", i), "high")); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		n := len(g.batches)
		g.mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second batch never built")
		}
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	second := g.batches[1]
	g.mu.Unlock()
	if len(second) != 5 {
		t.Fatalf("batch holds %d txs, want the 5 queued", len(second))
	}
	for i, tx := range second {
		wantHigh := i < 2
		isHigh := tx.Invocation.Args[1][0] == 'h'
		if isHigh != wantHigh {
			t.Fatalf("position %d: priority lane not drained first: %q", i, tx.Invocation.Args[1])
		}
	}
}

func TestAdaptiveBatchSizing(t *testing.T) {
	g := newGated(t, Config{MaxBlock: 4}, true)
	defer g.in.Close()
	g.hold(t)

	// Backlog of 10 against MaxBlock 4: the builder must cut full blocks
	// under pressure, never one over the cap.
	for i := 0; i < 10; i++ {
		if _, err := g.in.Submit(context.Background(), mkTx(t, fmt.Sprintf("b%d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	close(g.gate)
	deadline := time.Now().Add(5 * time.Second)
	for g.in.Depth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("backlog never drained")
		}
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sawFull := false
	for _, batch := range g.batches[1:] {
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds MaxBlock 4", len(batch))
		}
		if len(batch) == 4 {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("a 10-deep backlog never produced a MaxBlock-sized batch")
	}
	// The first batch held exactly the plug: low load cuts small blocks.
	if len(g.batches[0]) != 1 {
		t.Fatalf("idle-load batch held %d txs, want 1", len(g.batches[0]))
	}
}

func TestMinBlockWaitsBounded(t *testing.T) {
	// MinBlock 8 with a single submitted transaction: the builder still
	// cuts after roughly one BuildInterval instead of waiting forever.
	var in *Ingress
	var err error
	in, err = New(Config{MinBlock: 8, BuildInterval: 10 * time.Millisecond}, commitSink(&in))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h, err := in.Submit(context.Background(), mkTx(t, "solo", "v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if r := h.Wait(ctx); !r.Committed {
		t.Fatalf("r = %+v", r)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("undersized batch waited %v, want ≈ BuildInterval", waited)
	}
}

func TestThrottleBacksOff(t *testing.T) {
	var in *Ingress
	var err error
	var calls int
	var mu sync.Mutex
	times := []time.Time{}
	in, err = New(Config{BuildInterval: 5 * time.Millisecond}, func(txs []*txn.Tx) error {
		mu.Lock()
		calls++
		times = append(times, time.Now())
		n := calls
		mu.Unlock()
		for _, tx := range txs {
			if n <= 2 {
				in.Resolve(tx.ID, system.Result{Err: fmt.Errorf("%w: consensus busy", ErrOverloaded)})
			} else {
				in.Resolve(tx.ID, system.Result{Committed: true})
			}
		}
		if n <= 2 {
			return errors.New("backpressure")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// First two rounds are throttled; keep submitting until one commits.
	deadline := time.Now().Add(8 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("builder never recovered from throttle")
		}
		h, err := in.Submit(ctx, mkTx(t, fmt.Sprintf("t%d", i), "v"))
		if err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		r := h.Wait(ctx)
		if r.Committed {
			break
		}
		if r.Err != nil && !errors.Is(r.Err, ErrOverloaded) {
			t.Fatalf("unexpected error: %v", r.Err)
		}
	}
	st := in.Stats()
	if st.Throttled < 2 {
		t.Fatalf("Throttled = %d, want ≥ 2", st.Throttled)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) >= 3 {
		// Second backoff doubles: the gap after call 2 must dominate the
		// configured interval.
		if gap := times[2].Sub(times[1]); gap < 2*(5*time.Millisecond) {
			t.Fatalf("backoff gap %v shorter than doubled interval", gap)
		}
	}
}

func TestCloseSweepsPending(t *testing.T) {
	// A sink that never resolves: Close must answer both the dispatched
	// batch and the still-queued backlog with ErrClosed.
	g := newGated(t, Config{}, false)
	g.hold(t)
	h, err := g.in.Submit(context.Background(), mkTx(t, "queued", "v"))
	if err != nil {
		t.Fatal(err)
	}
	close(g.gate)
	g.in.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if r := h.Wait(ctx); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("swept result %+v, want ErrClosed", r)
	}
	if _, err := g.in.Submit(context.Background(), mkTx(t, "late", "v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit err = %v", err)
	}
}

func TestWatchdogTimesOutUnresolved(t *testing.T) {
	var in *Ingress
	var err error
	in, err = New(Config{CommitTimeout: 50 * time.Millisecond}, func(txs []*txn.Tx) error {
		return nil // consensus black hole: accepted, never sealed
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	h, err := in.Submit(context.Background(), mkTx(t, "lost", "v"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := h.Wait(ctx)
	if r.Err == nil || r.Committed {
		t.Fatalf("r = %+v, want commit-timeout error", r)
	}
}

func TestStaleWatchdogDoesNotClobberResubmission(t *testing.T) {
	// The commit-timeout timer acts on the *entries* a batch dispatched,
	// not on their ids. After the entry resolves and a same-content
	// resubmission creates a fresh entry under the same id, a stale timer
	// firing must be a no-op on the new entry — even once the first batch
	// has been reused for the second.
	var in *Ingress
	var err error
	in, err = New(Config{}, func(txs []*txn.Tx) error {
		return nil // the test resolves by hand
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tx1 := mkTx(t, "re", "used")
	h1, err := in.Submit(ctx, tx1)
	if err != nil {
		t.Fatal(err)
	}
	waitDispatched(t, in, tx1.ID)
	in.Resolve(tx1.ID, system.Result{Committed: true})
	if r := h1.Wait(ctx); !r.Committed {
		t.Fatalf("first submission %+v", r)
	}

	// Fresh entry, same content hash. A genuinely new transaction: not
	// deduplicated against the resolved one.
	h2, err := in.Submit(ctx, mkTx(t, "re", "used"))
	if err != nil {
		t.Fatal(err)
	}
	if st := in.Stats(); st.Admitted != 2 || st.Deduped != 0 {
		t.Fatalf("resubmission after resolve was deduplicated: %+v", st)
	}

	// The timer fires late, its deadline long passed for nothing it still
	// reaches: the new entry's batch is not due, and the first one's was
	// let go when it resolved.
	waitDispatched(t, in, tx1.ID)
	in.expire()
	select {
	case r := <-h2.Done():
		t.Fatalf("stale watchdog resolved the resubmission: %+v", r)
	default:
	}
	in.Resolve(tx1.ID, system.Result{Committed: true})
	if r := h2.Wait(ctx); !r.Committed {
		t.Fatalf("second submission %+v", r)
	}
}

// TestTimeoutSkipsAnEntryResolvedWhileQueued: an entry resolved while still
// queued is pulled into a batch all the same, and the same content
// submitted again lands beside it. When the batch times out, the door
// answers the resubmission once and leaves the resolved entry — and the id
// the resubmission holds — alone.
func TestTimeoutSkipsAnEntryResolvedWhileQueued(t *testing.T) {
	g := newGated(t, Config{CommitTimeout: 20 * time.Millisecond}, false)
	defer g.in.Close()
	g.hold(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h1, err := g.in.Submit(ctx, mkTx(t, "twice", "queued"))
	if err != nil {
		t.Fatal(err)
	}
	tx := mkTx(t, "twice", "queued")
	g.in.Resolve(tx.ID, system.Result{Committed: true})
	h2, err := g.in.Submit(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("the resubmission attached to the resolved entry")
	}
	close(g.gate)
	if r := h1.Wait(ctx); !r.Committed {
		t.Fatalf("first submission %+v", r)
	}
	if r := h2.Wait(ctx); r.Err == nil || !strings.Contains(r.Err.Error(), "commit timeout") {
		t.Fatalf("resubmission %+v, want a commit timeout", r)
	}
	if st := g.in.Stats(); st.Resolved != st.Admitted {
		t.Fatalf("%d answers for %d admissions", st.Resolved, st.Admitted)
	}
}

func TestValidateRejectsImpossibleShapes(t *testing.T) {
	noop := func([]*txn.Tx) error { return nil }
	if _, err := New(Config{MinBlock: 8, MaxBlock: 4}, noop); err == nil {
		t.Fatal("MinBlock > MaxBlock accepted")
	}
	if _, err := New(Config{MaxBlock: 64, Capacity: 32}, noop); err == nil {
		t.Fatal("MaxBlock > Capacity accepted")
	}
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

func TestConcurrentSubmitClean(t *testing.T) {
	var in *Ingress
	var err error
	in, err = New(Config{Capacity: 64, MaxBlock: 16}, commitSink(&in))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Half the keys collide across workers, exercising dedup
				// and shed paths under race.
				h, err := in.Submit(ctx, mkTx(t, fmt.Sprintf("k%d", (w*50+i)%200), "v"))
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					continue
				}
				if r := h.Wait(ctx); !r.Committed && r.Err == nil {
					t.Errorf("worker %d: %+v", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := in.Stats()
	if st.Admitted == 0 || st.Resolved != st.Admitted {
		t.Fatalf("resolved %d of %d admitted", st.Resolved, st.Admitted)
	}
}

// TestResolvedTransactionIsCollectable: once a dispatched transaction has
// resolved, nothing in the front door may still reach it. (At the parent
// every batch's watchdog timer held its entries — transaction and handle —
// for the full CommitTimeout, 60 s by default: ≈ 220 000 resolved
// transactions at 3 700 tx/s.) Two sinks: one resolves before the watchdog
// is armed, the other after, which leaves a timer to stop.
func TestResolvedTransactionIsCollectable(t *testing.T) {
	for _, late := range []bool{false, true} {
		t.Run(fmt.Sprintf("resolveAfterDispatch=%v", late), func(t *testing.T) {
			var in *Ingress
			dispatched := make(chan cryptoutil.Hash, 1)
			in, err := New(Config{}, func(txs []*txn.Tx) error {
				for _, tx := range txs {
					if late {
						dispatched <- tx.ID
					} else {
						in.Resolve(tx.ID, system.Result{Committed: true})
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()

			collected := make(chan struct{})
			func() {
				tx := mkTx(t, "collect", "me")
				runtime.SetFinalizer(tx, func(*txn.Tx) { close(collected) })
				h, err := in.Submit(context.Background(), tx)
				if err != nil {
					t.Fatal(err)
				}
				if late {
					id := <-dispatched
					// Let the builder arm the batch's timeout first.
					waitDispatched(t, in, id)
					in.Resolve(id, system.Result{Committed: true})
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if r := h.Wait(ctx); !r.Committed {
					t.Fatalf("r = %+v", r)
				}
			}()
			runtime.GC()
			runtime.GC()
			select {
			case <-collected:
			case <-time.After(2 * time.Second):
				t.Fatal("a resolved transaction is still reachable after two GC cycles")
			}
		})
	}
}

// TestCloseStopsWatchdogs: the timer armed for a batch that never resolved
// must not outlive Close.
func TestCloseStopsWatchdogs(t *testing.T) {
	in, err := New(Config{CommitTimeout: time.Hour}, func([]*txn.Tx) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	tx := mkTx(t, "never", "sealed")
	h, err := in.Submit(context.Background(), tx)
	if err != nil {
		t.Fatal(err)
	}
	waitDispatched(t, in, tx.ID)
	in.Close()
	if r := <-h.Done(); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("r = %+v, want ErrClosed", r)
	}
	if in.timer.Stop() {
		t.Fatal("the commit-timeout timer was still armed after Close")
	}
}

// waitDispatched waits until id's pending entry sits in a batch the sink
// has returned from, so the batch's commit timeout runs.
func waitDispatched(t *testing.T, in *Ingress, id cryptoutil.Hash) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		in.mu.Lock()
		e := in.byID[id]
		armed := e != nil && e.batch != nil && slices.Contains(in.out, e.batch) && !in.armed.IsZero()
		in.mu.Unlock()
		if armed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the submission never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeoutRacingSealAnswersOnce: commit timeouts of 1–3 ms (the skew
// varies them, so deadlines leave the out list out of dispatch order) fire
// while the sealer answers the same batches, half of each at once and the
// rest about when it times out. Every submission is answered exactly once,
// by one or the other, and every batch the sink is handed — most of them
// reused — holds only transactions no batch held before.
func TestTimeoutRacingSealAnswersOnce(t *testing.T) {
	const n = 600
	var skew atomic.Int64
	var in *Ingress
	sealed := make(chan []*txn.Tx, n)
	seen := make(map[cryptoutil.Hash]bool)
	var sinkErr error
	in, err := New(Config{
		MaxBlock:      8,
		CommitTimeout: time.Millisecond,
		TimeoutSkew:   func(d time.Duration) time.Duration { return d * time.Duration(1+skew.Add(1)%3) },
	}, func(txs []*txn.Tx) error {
		for _, tx := range txs {
			if tx == nil || seen[tx.ID] {
				sinkErr = fmt.Errorf("a batch carries %v, nil or handed out before", tx)
			}
			seen[tx.ID] = true
		}
		sealed <- slices.Clone(txs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	done := make(chan struct{})
	go func() { // the seal path: half of each batch at once, the rest about when it times out
		defer close(done)
		for txs := range sealed {
			for i, tx := range txs {
				if i == len(txs)/2 {
					time.Sleep(time.Duration(1+len(txs)%2) * time.Millisecond)
				}
				in.Resolve(tx.ID, system.Result{Committed: true})
			}
		}
	}()
	handles := make([]*system.Handle, n)
	for i := range handles {
		if handles[i], err = in.Submit(context.Background(), mkTx(t, fmt.Sprintf("race%d", i), "v")); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	for i, h := range handles {
		ch := h.Done()
		select {
		case r := <-ch:
			if !r.Committed && (r.Err == nil || !strings.Contains(r.Err.Error(), "commit timeout")) {
				t.Fatalf("submission %d: %+v, want committed or timed out", i, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("submission %d was never answered", i)
		}
	}
	in.Close()
	close(sealed)
	<-done
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	if st := in.Stats(); st.Admitted != n || st.Resolved != n {
		t.Fatalf("%d admitted, %d answered; want %d of each", st.Admitted, st.Resolved, n)
	}
}

// BenchmarkIngressRoundTrip is the front door's own cost per transaction:
// Submit, the builder's pull, a sink that seals what it is handed, and the
// caller's wait. The transactions are signed once and submitted again
// after they resolve, each time a new transaction to the door. What stays
// per transaction is the entry (which holds the handle) and the waiter's
// channel; the batch, its slices and the timer are reused.
func BenchmarkIngressRoundTrip(b *testing.B) {
	txs := make([]*txn.Tx, 256)
	for i := range txs {
		txs[i] = mkTx(b, fmt.Sprintf("rt%d", i), "v")
	}
	var in *Ingress
	in, err := New(Config{}, func(batch []*txn.Tx) error {
		for _, tx := range batch {
			in.Seal(tx.ID, system.Result{Committed: true}, "execute", time.Microsecond)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	ctx := context.Background()
	roundTrip := func(tx *txn.Tx) {
		h, err := in.Submit(ctx, tx)
		if err != nil {
			b.Fatal(err)
		}
		if r := h.Wait(ctx); !r.Committed {
			b.Fatalf("r = %+v", r)
		}
	}
	for _, tx := range txs { // size the lanes, the table and the free list
		roundTrip(tx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		roundTrip(txs[i%len(txs)])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tx")
}
