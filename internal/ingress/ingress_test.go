package ingress

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
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
	g.batches = append(g.batches, txs)
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
	// The commit-timeout watchdog holds the *entry* it dispatched, not
	// just its id. After the entry resolves and a same-content
	// resubmission creates a fresh entry under the same id, the stale
	// timer firing must be a no-op on the new entry.
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
	// Wait for dispatch, then grab the first entry the way its watchdog
	// timer holds it.
	deadline := time.Now().Add(5 * time.Second)
	var e1 *entry
	for e1 == nil {
		if time.Now().After(deadline) {
			t.Fatal("first submission never dispatched")
		}
		in.mu.Lock()
		e1 = in.byID[tx1.ID]
		in.mu.Unlock()
		if e1 == nil {
			time.Sleep(time.Millisecond)
		}
	}
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

	// The stale timer fires: pointer identity must protect the new entry.
	in.resolveEntry(e1, system.Result{Err: errors.New("stale watchdog")})
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
					// Let the builder arm the batch's watchdog first.
					for armed := false; !armed; time.Sleep(time.Millisecond) {
						in.mu.Lock()
						e := in.byID[id]
						armed = e != nil && e.batch != nil && e.batch.timer != nil
						in.mu.Unlock()
					}
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

// TestCloseStopsWatchdogs: a timer armed for a batch that never resolved
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
	var timer *time.Timer
	for ; timer == nil; time.Sleep(time.Millisecond) {
		in.mu.Lock()
		if b := in.byID[tx.ID].batch; b != nil {
			timer = b.timer
		}
		in.mu.Unlock()
	}
	in.Close()
	if r := <-h.Done(); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("r = %+v, want ErrClosed", r)
	}
	if timer.Stop() {
		t.Fatal("the batch's watchdog timer was still armed after Close")
	}
}
