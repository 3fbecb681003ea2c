package system

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/israce"
)

func newTestReplicator() *Replicator {
	return NewReplicator("test: leaderless", "test: apply timeout")
}

func (w *Waiters[K]) live() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.m)
}

// A proposal a replica accepted and then lost is proposed again one lap
// later, and the request still resolves exactly once.
func TestReplicatorReproposesLostProposal(t *testing.T) {
	rp := newTestReplicator()
	id := rp.NextID()
	calls := 0
	start := time.Now()
	r := rp.Do(id, true, 1, func(int) bool {
		calls++
		if calls == 2 {
			rp.Resolve(id, Result{Committed: true})
			// A second replica applying the same entry, and a duplicate
			// log entry, find no waiter.
			rp.Resolve(id, Result{Err: errors.New("second application")})
		}
		return true // the first call's proposal vanishes
	})
	if !r.Committed || r.Err != nil {
		t.Fatalf("result %+v, want the first resolution", r)
	}
	if calls != 2 {
		t.Fatalf("propose called %d times, want 2", calls)
	}
	if d := time.Since(start); d < replicateLap {
		t.Fatalf("re-proposed after %v, before the %v lap was over", d, replicateLap)
	}
	if n := rp.waiters.live(); n != 0 {
		t.Fatalf("%d waiters left registered", n)
	}
}

// A duplicate application of one request must not resolve another's
// waiter.
func TestReplicatorDuplicateResolveLeavesOthersWaiting(t *testing.T) {
	rp := newTestReplicator()
	a, b := rp.NextID(), rp.NextID()
	if a == b {
		t.Fatal("NextID repeated an id")
	}
	chA, chB := rp.waiters.Register(a), rp.waiters.Register(b)
	rp.Resolve(a, Result{Committed: true})
	rp.Resolve(a, Result{Committed: true})
	if r := <-chA; !r.Committed {
		t.Fatalf("a resolved with %+v", r)
	}
	select {
	case r := <-chB:
		t.Fatalf("b resolved with %+v by a's duplicate", r)
	default:
	}
	if n := rp.waiters.live(); n != 1 {
		t.Fatalf("%d waiters live, want b's alone", n)
	}
}

// With no replica accepting, Do backs off until the deadline and reports
// the leaderless error, leaving nothing registered.
func TestReplicatorLeaderlessGiveUp(t *testing.T) {
	rp := newTestReplicator()
	rp.Deadline = 30 * time.Millisecond
	calls := 0
	start := time.Now()
	r := rp.Do(rp.NextID(), true, 3, func(int) bool { calls++; return false })
	if r.Err != rp.errLeaderless || r.Committed {
		t.Fatalf("result %+v, want the leaderless error", r)
	}
	if d := time.Since(start); d < rp.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, rp.Deadline)
	}
	if calls < 6 || calls%3 != 0 {
		t.Fatalf("propose called %d times; want every one of 3 replicas asked on each of several rounds", calls)
	}
	if n := rp.waiters.live(); n != 0 {
		t.Fatalf("%d waiters left registered", n)
	}
}

// An accepted proposal nobody applies times out at the first lap boundary
// past the deadline; a propose-once caller is asked exactly once.
func TestReplicatorApplyTimeout(t *testing.T) {
	for _, repropose := range []bool{false, true} {
		rp := newTestReplicator()
		rp.Deadline = replicateLap + replicateLap/2
		calls := 0
		r := rp.Do(rp.NextID(), repropose, 3, func(int) bool { calls++; return true })
		if r.Err != rp.errTimeout {
			t.Fatalf("repropose=%v: result %+v, want the timeout error", repropose, r)
		}
		if want := map[bool]int{false: 1, true: 2}[repropose]; calls != want {
			t.Fatalf("repropose=%v: propose called %d times, want %d", repropose, calls, want)
		}
		if n := rp.waiters.live(); n != 0 {
			t.Fatalf("repropose=%v: %d waiters left registered", repropose, n)
		}
	}
}

// A slow apply that takes three laps waits on one timer, reset each lap.
func TestReplicatorLapsReuseOneTimer(t *testing.T) {
	var made atomic.Int32
	newTimer := lapTimers.New
	lapTimers.New = func() any { made.Add(1); return newTimer() }
	defer func() { lapTimers.New = newTimer }()

	rp := newTestReplicator()
	id := rp.NextID()
	calls := 0
	r := rp.Do(id, true, 1, func(int) bool {
		if calls++; calls == 4 {
			rp.Resolve(id, Result{Committed: true})
		}
		return true
	})
	if !r.Committed || calls != 4 {
		t.Fatalf("result %+v after %d proposals, want commit on the fourth", r, calls)
	}
	if n := made.Load(); n > 1 {
		t.Fatalf("three laps made %d timers, want at most one", n)
	}
}

// The hot path: register, propose, resolve — no key conversion, no
// closure, no timer.
func TestReplicatorAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	w := NewWaiters[uint64]()
	// The waiter's channel: its header and, Result holding pointers, its
	// separately allocated one-slot buffer.
	if got := testing.AllocsPerRun(200, func() {
		ch := w.Register(42)
		w.Resolve(42, Result{Committed: true})
		<-ch
	}); got > 2 {
		t.Errorf("Waiters[uint64] register → resolve: %v allocs, want at most 2", got)
	}
	rp := newTestReplicator()
	var id uint64
	propose := func(int) bool { rp.Resolve(id, Result{Committed: true}); return true }
	do := func() { id = rp.NextID(); rp.Do(id, true, 1, propose) }
	do() // leave a timer and a channel in the pools
	// The lap timer and the waiter's channel both come from their pools.
	if got := testing.AllocsPerRun(200, do); got != 0 {
		t.Errorf("Replicator.Do: %v allocs, want 0", got)
	}
}

// Sixteen proposers whose applies land around the deadline, so give-ups
// race resolves: a Resolve that takes a waiter just before its Do gives up
// still sends on that waiter's channel. Recycled, such a channel would
// hand its stale result to a later request. None may ever receive another
// request's result.
func TestReplicatorRecycledChannelsNeverCrossResults(t *testing.T) {
	rp := newTestReplicator()
	rp.Deadline = time.Millisecond // give up at the first lap boundary
	var wg sync.WaitGroup
	var answered, gaveUp atomic.Int64
	for p := 0; p < 16; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for round := 0; round < 6; round++ {
				id := rp.NextID()
				// Applied anywhere from well inside the lap to just past it.
				delay := replicateLap - 5*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
				r := rp.Do(id, false, 1, func(int) bool {
					time.AfterFunc(delay, func() {
						rp.Resolve(id, Result{Committed: true, Value: binary.BigEndian.AppendUint64(nil, id)})
					})
					return true
				})
				switch {
				case rp.GaveUp(r.Err):
					gaveUp.Add(1)
				case r.Err != nil || len(r.Value) != 8:
					t.Errorf("request %d: result %+v", id, r)
				case binary.BigEndian.Uint64(r.Value) != id:
					t.Errorf("request %d received request %d's result", id, binary.BigEndian.Uint64(r.Value))
				default:
					answered.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	t.Logf("%d answered, %d given up", answered.Load(), gaveUp.Load())
	if answered.Load() == 0 || gaveUp.Load() == 0 {
		t.Fatalf("%d answered, %d given up: the schedule never raced the two", answered.Load(), gaveUp.Load())
	}
}
