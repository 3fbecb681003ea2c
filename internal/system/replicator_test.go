package system

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/consensus"
	"dichotomy/internal/israce"
)

func newTestReplicator() *Replicator {
	return NewReplicator("test: leaderless", "test: apply timeout")
}

// idOf reads the request id Start wrote into an entry.
func idOf(entry []byte) uint64 { return binary.BigEndian.Uint64(entry) }

// lowest returns the smallest request id rp still holds in flight, read as
// the mark of a probe it issues and finishes — the probe's own id when
// nothing else is in flight.
func lowest(rp *Replicator) (mark, probe uint64) {
	entry := make([]byte, consensus.Header)
	probe = rp.flight.Issue(entry, nil)
	rp.flight.Finish(probe)
	return binary.BigEndian.Uint64(entry[8:]), probe
}

// idle reports whether rp holds nothing in flight.
func idle(rp *Replicator) bool {
	mark, probe := lowest(rp)
	return mark == probe
}

// A proposal a replica accepted and then lost is proposed again by the
// Resend lap, one or two laps later, and the request still resolves
// exactly once.
func TestReplicatorReproposesLostProposal(t *testing.T) {
	rp := newTestReplicator()
	var calls atomic.Int32
	propose := func(entry []byte) bool {
		if calls.Add(1) == 2 {
			rp.Resolve(idOf(entry), Result{Committed: true})
			// A second replica applying the same entry, and a duplicate
			// log entry, find no waiter.
			rp.Resolve(idOf(entry), Result{Err: errors.New("second application")})
		}
		return true // the first call's proposal vanishes
	}
	defer rp.flight.Resend(propose)()
	start := time.Now()
	r := rp.Do(make([]byte, consensus.Header), propose)
	if !r.Committed || r.Err != nil {
		t.Fatalf("result %+v, want the first resolution", r)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("propose called %d times, want 2", n)
	}
	if d := time.Since(start); d < consensus.Lap {
		t.Fatalf("re-proposed after %v, before the %v lap was over", d, consensus.Lap)
	}
	if !idle(rp) {
		t.Fatal("a request was left in flight")
	}
}

// A duplicate application of one request must not resolve another's
// waiter.
func TestReplicatorDuplicateResolveLeavesOthersWaiting(t *testing.T) {
	rp := newTestReplicator()
	chA, chB := make(chan Result, 1), make(chan Result, 1)
	a := rp.flight.Issue(make([]byte, consensus.Header), chA)
	b := rp.flight.Issue(make([]byte, consensus.Header), chB)
	if a == b {
		t.Fatal("Issue repeated an id")
	}
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
	if mark, _ := lowest(rp); mark != b {
		t.Fatalf("lowest request in flight %d, want b (%d)", mark, b)
	}
}

// With no replica accepting, Do backs off until the deadline and reports
// the leaderless error, leaving nothing in flight.
func TestReplicatorLeaderlessGiveUp(t *testing.T) {
	rp := newTestReplicator()
	rp.Deadline = 30 * time.Millisecond
	calls := 0
	start := time.Now()
	var r Result
	if n := CountGiveUps(func() {
		r = rp.Do(make([]byte, consensus.Header), func([]byte) bool { calls++; return false })
	}); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if r.Err != rp.errLeaderless || r.Committed {
		t.Fatalf("result %+v, want the leaderless error", r)
	}
	if d := time.Since(start); d < rp.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, rp.Deadline)
	}
	if calls < 2 {
		t.Fatalf("propose called %d times; want the group asked on each of several rounds", calls)
	}
	if !idle(rp) {
		t.Fatal("a request was left in flight")
	}
}

// An accepted proposal nobody applies times out at the deadline; with no
// Resend lap running it is proposed exactly once.
func TestReplicatorApplyTimeout(t *testing.T) {
	rp := newTestReplicator()
	rp.Deadline = 50 * time.Millisecond
	calls := 0
	start := time.Now()
	var r Result
	if n := CountGiveUps(func() {
		r = rp.Do(make([]byte, consensus.Header), func([]byte) bool { calls++; return true })
	}); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if r.Err != rp.errTimeout {
		t.Fatalf("result %+v, want the timeout error", r)
	}
	if d := time.Since(start); d < rp.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, rp.Deadline)
	}
	if calls != 1 {
		t.Fatalf("propose called %d times, want 1", calls)
	}
	if !idle(rp) {
		t.Fatal("a request was left in flight")
	}
}

// A fan-out of calls gives up each on its own: one that no replica
// accepted answers leaderless, one accepted and never applied times out,
// and a third, applied, is answered — waited in any order.
func TestReplicatorStartWaitGiveUps(t *testing.T) {
	rp := newTestReplicator()
	rp.Deadline = 30 * time.Millisecond
	var leaderless, timedOut, applied Result
	if n := CountGiveUps(func() {
		timeout := rp.Start(make([]byte, consensus.Header), func([]byte) bool { return true })
		none := rp.Start(make([]byte, consensus.Header), func([]byte) bool { return false })
		ok := rp.Start(make([]byte, consensus.Header), func(entry []byte) bool {
			rp.Resolve(idOf(entry), Result{Committed: true})
			return true
		})
		applied, leaderless, timedOut = ok.Wait(), none.Wait(), timeout.Wait()
	}); n != 2 {
		t.Fatalf("%d give-ups counted, want 2", n)
	}
	if leaderless.Err != rp.errLeaderless || timedOut.Err != rp.errTimeout || !applied.Committed || applied.Err != nil {
		t.Fatalf("results %+v, %+v, %+v; want leaderless, timeout, committed", leaderless, timedOut, applied)
	}
	if !idle(rp) {
		t.Fatal("a request was left in flight")
	}
}

// The hot path: issue, propose, resolve — no closure, no timer — alone
// and as a fan-out of four calls started before any is waited.
func TestReplicatorAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	rp := newTestReplicator()
	var entries [4][]byte
	for i := range entries {
		entries[i] = make([]byte, consensus.Header)
	}
	propose := func(entry []byte) bool { rp.Resolve(idOf(entry), Result{Committed: true}); return true }
	do := func() { rp.Do(entries[0], propose) }
	fanOut := func() {
		var calls [4]Call
		for i, e := range entries {
			calls[i] = rp.Start(e, propose)
		}
		for _, c := range calls {
			c.Wait()
		}
	}
	fanOut() // leave timers and channels in the pools
	// The deadline timer and the waiter's channel both come from their pools.
	for _, p := range []struct {
		name string
		fn   func()
	}{{"Do", do}, {"4 × Start, then 4 × Wait", fanOut}} {
		if got := testing.AllocsPerRun(200, p.fn); got != 0 {
			t.Errorf("Replicator %s: %v allocs, want 0", p.name, got)
		}
	}
}

// Sixteen proposers whose applies land around the deadline, so give-ups
// race resolves: a Resolve that takes a waiter just before its call gives
// up still sends on that waiter's channel. Recycled before that send, such
// a channel would hand its stale result to a later request. Each proposer
// starts three calls a round and waits them in reverse order. None may
// ever receive another request's result.
func TestReplicatorRecycledChannelsNeverCrossResults(t *testing.T) {
	rp := newTestReplicator()
	rp.Deadline = 50 * time.Millisecond
	var wg sync.WaitGroup
	var answered, gaveUp atomic.Int64
	counted := CountGiveUps(func() {
		for p := 0; p < 16; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(p)))
				for round := 0; round < 6; round++ {
					var ids [3]uint64
					var calls [3]Call
					for i := range calls {
						// Applied anywhere from just inside the deadline to just past it.
						delay := rp.Deadline - 5*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond)))
						calls[i] = rp.Start(make([]byte, consensus.Header), func(entry []byte) bool {
							id := idOf(entry)
							ids[i] = id
							time.AfterFunc(delay, func() {
								rp.Resolve(id, Result{Committed: true, Value: binary.BigEndian.AppendUint64(nil, id)})
							})
							return true
						})
					}
					for i := len(calls) - 1; i >= 0; i-- {
						r, id := calls[i].Wait(), ids[i]
						switch {
						case r.Err == rp.errLeaderless || r.Err == rp.errTimeout:
							gaveUp.Add(1)
						case r.Err != nil || len(r.Value) != 8:
							t.Errorf("request %d: result %+v", id, r)
						case binary.BigEndian.Uint64(r.Value) != id:
							t.Errorf("request %d received request %d's result", id, binary.BigEndian.Uint64(r.Value))
						default:
							answered.Add(1)
						}
					}
				}
			}(p)
		}
		wg.Wait()
	})
	t.Logf("%d answered, %d given up", answered.Load(), gaveUp.Load())
	if answered.Load() == 0 || gaveUp.Load() == 0 {
		t.Fatalf("%d answered, %d given up: the schedule never raced the two", answered.Load(), gaveUp.Load())
	}
	// Only the give-ups whose error was the answer count: a Resolve that
	// won the race answered instead.
	if counted != gaveUp.Load() {
		t.Fatalf("%d give-ups counted, want the %d answered with a give-up error", counted, gaveUp.Load())
	}
}
