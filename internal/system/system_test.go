package system

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

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
		got, ok := HandleID(EncodeHandle(id))
		return ok && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHandleIDRejectsBadLength(t *testing.T) {
	if _, ok := HandleID([]byte{1, 2, 3}); ok {
		t.Fatal("short handle accepted")
	}
	if _, ok := HandleID(nil); ok {
		t.Fatal("nil handle accepted")
	}
}

func TestPayloadBoxRefCounting(t *testing.T) {
	box := NewPayloadBox()
	id := box.Put("payload", 3)
	for i := 0; i < 3; i++ {
		v, ok := box.Take(id)
		if !ok || v.(string) != "payload" {
			t.Fatalf("take %d failed: %v %v", i, v, ok)
		}
	}
	if _, ok := box.Take(id); ok {
		t.Fatal("fourth take succeeded")
	}
	if box.Len() != 0 {
		t.Fatalf("Len = %d after exhaustion", box.Len())
	}
}

func TestPayloadBoxDistinctHandles(t *testing.T) {
	box := NewPayloadBox()
	a := box.Put("a", 1)
	b := box.Put("b", 1)
	if a == b {
		t.Fatal("duplicate handles")
	}
	va, _ := box.Take(a)
	vb, _ := box.Take(b)
	if va.(string) != "a" || vb.(string) != "b" {
		t.Fatal("payloads crossed")
	}
}

func TestPayloadBoxConcurrent(t *testing.T) {
	box := NewPayloadBox()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := box.Put(i, 1)
				if _, ok := box.Take(id); !ok {
					t.Error("lost payload")
					return
				}
			}
		}()
	}
	wg.Wait()
	if box.Len() != 0 {
		t.Fatalf("Len = %d, want 0", box.Len())
	}
}

func TestWaitersResolve(t *testing.T) {
	w := NewWaiters[string]()
	ch := w.Register("tx1")
	w.Resolve("tx1", Result{Committed: true})
	r := <-ch
	if !r.Committed {
		t.Fatalf("r = %+v", r)
	}
	// Double-resolve must be a no-op, not a panic or double send.
	w.Resolve("tx1", Result{Committed: false})
}

func TestWaitersResolveUnknownKey(t *testing.T) {
	w := NewWaiters[string]()
	w.Resolve("ghost", Result{}) // must not panic or block
}

func TestWaitersCancel(t *testing.T) {
	w := NewWaiters[string]()
	ch := w.Register("tx1")
	w.Cancel("tx1")
	w.Resolve("tx1", Result{Committed: true})
	select {
	case r := <-ch:
		t.Fatalf("cancelled waiter got %+v", r)
	default:
	}
}

func TestResultZeroValue(t *testing.T) {
	var r Result
	if r.Committed || r.Reason != occ.OK || r.Err != nil {
		t.Fatalf("zero Result not neutral: %+v", r)
	}
}
