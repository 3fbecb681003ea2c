package system

import (
	"context"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/israce"
	"dichotomy/internal/occ"
	"dichotomy/internal/txn"
)

// Every Done channel of a handle receives its outcome — the first, the
// ones after it, and one asked for once it has resolved — and only the
// first Resolve counts.
func TestHandleEveryWaiterReceives(t *testing.T) {
	h := NewHandle()
	waits := []<-chan Result{h.Done(), h.Done(), h.Done()}
	h.Resolve(Result{Committed: true})
	h.Resolve(Result{})
	waits = append(waits, h.Done())
	for i, ch := range waits {
		if r := <-ch; !r.Committed {
			t.Fatalf("waiter %d received %+v", i, r)
		}
	}
}

// A blocking system's submit path: the handle, the one closure its
// goroutine runs, and the Done channel's header and buffer (Result holds
// pointers); the first waiter takes no slice.
func TestBlockingSubmitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	b := NewBlocking(func(*txn.Tx) Result { return Result{Committed: true} })
	tx := &txn.Tx{}
	ctx := context.Background()
	if got := testing.AllocsPerRun(200, func() {
		h, _ := b.Submit(ctx, tx)
		<-h.Done()
	}); got > 4 {
		t.Errorf("Submit → Done → resolve: %v allocs, want at most 4", got)
	}
}

func TestHandleRoundTrip(t *testing.T) {
	f := func(id uint64) bool {
		h := EncodeHandle(id)
		return len(h) == 8 && binary.BigEndian.Uint64(h) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Every caller attached to an entry gets its one resolution, and the entry
// closes with it: a later submission of the same content opens anew.
func TestPendingResolve(t *testing.T) {
	p := NewPending("test: commit timeout", nil)
	id := cryptoutil.HashBytes([]byte("tx1"))
	h, opened := p.Open(id)
	if !opened {
		t.Fatal("first Open attached")
	}
	dup, opened := p.Open(id)
	if opened || dup != h {
		t.Fatalf("duplicate Open: opened %v, same handle %v", opened, dup == h)
	}
	p.Resolve(id, Result{Committed: true})
	// A second resolution of the id is a no-op, not a panic or a second
	// answer.
	p.Resolve(id, Result{Err: errors.New("second")})
	for i, h := range []*Handle{h, dup} {
		if r := <-h.Done(); !r.Committed || r.Err != nil {
			t.Fatalf("caller %d: %+v", i, r)
		}
	}
	if again, opened := p.Open(id); !opened || again == h {
		t.Fatal("a submission after the resolution attached to the resolved entry")
	}
}

func TestPendingResolveUnknownID(t *testing.T) {
	p := NewPending("test: commit timeout", nil)
	p.Resolve(cryptoutil.HashBytes([]byte("ghost")), Result{}) // must not panic or block
	if _, opened := p.Open(cryptoutil.HashBytes([]byte("ghost"))); !opened {
		t.Fatal("resolving an unknown id opened an entry")
	}
}

// A timeout answers every attached caller with the table's error, counts
// one expiry, and closes the entry: a resolution after it finds no one.
func TestPendingTimeout(t *testing.T) {
	p := NewPending("test: commit timeout", nil)
	p.timeout = 20 * time.Millisecond
	id := cryptoutil.HashBytes([]byte("tx1"))
	h, _ := p.Open(id)
	dup, _ := p.Open(id)
	var r Result
	if n := CountGiveUps(func() { r = p.await(id, h) }); n != 1 {
		t.Fatalf("%d expiries counted, want 1", n)
	}
	if r.Err != p.errTimeout {
		t.Fatalf("await: %+v, want the timeout error", r)
	}
	if r := <-dup.Done(); r.Err != p.errTimeout {
		t.Fatalf("attached caller: %+v, want the timeout error", r)
	}
	p.Resolve(id, Result{Committed: true})
	if r := <-h.Done(); r.Committed {
		t.Fatal("a resolution after the timeout reached the expired entry")
	}
	if _, opened := p.Open(id); !opened {
		t.Fatal("the expired entry stayed open")
	}
}

// Submit runs one submission per pending id, and what run returns answers
// every caller attached meanwhile — the early exits that never reach the
// seal path included.
func TestPendingSubmitAnswersEveryExit(t *testing.T) {
	tx := &txn.Tx{ID: cryptoutil.HashBytes([]byte("tx1"))}
	release := make(chan struct{})
	var runs atomic.Int32
	p := NewPending("test: commit timeout", func(*txn.Tx, func() Result) Result {
		runs.Add(1)
		<-release
		return Result{Err: errors.New("ordering unavailable")}
	})
	h, _ := p.Submit(context.Background(), tx)
	dup, _ := p.Submit(context.Background(), tx)
	close(release)
	for i, h := range []*Handle{h, dup} {
		if r := h.Wait(context.Background()); r.Err == nil || r.Err.Error() != "ordering unavailable" {
			t.Fatalf("caller %d: %+v", i, r)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("run ran %d times, want 1", n)
	}
	if _, opened := p.Open(tx.ID); !opened {
		t.Fatal("the entry stayed open after run returned")
	}
}

// The direct path's table: one pending transaction opened and resolved.
func TestPendingAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	p := NewPending("test: commit timeout", nil)
	id := cryptoutil.HashBytes([]byte("tx1"))
	// The Handle, whose first waiter slot is inline. The map's bucket for
	// id is reused from one run to the next.
	if got := testing.AllocsPerRun(200, func() {
		p.Open(id)
		p.Resolve(id, Result{Committed: true})
	}); got != 1 {
		t.Errorf("Pending open → resolve: %v allocs, want 1", got)
	}
}

func TestResultZeroValue(t *testing.T) {
	var r Result
	if r.Committed || r.Reason != occ.OK || r.Err != nil {
		t.Fatalf("zero Result not neutral: %+v", r)
	}
}
