package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/txn"
)

func TestParallelCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 256} {
			counts := make([]atomic.Int32, max(n, 1))
			Parallel(workers, n, func(i int) { counts[i].Add(1) })
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestParallelChunksCoverEveryIndexOnceContiguously(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 256} {
			counts := make([]atomic.Int32, max(n, 1))
			var chunks atomic.Int32
			ParallelChunks(workers, n, func(lo, hi int) {
				chunks.Add(1)
				if lo >= hi {
					t.Errorf("workers=%d n=%d: empty chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, got)
				}
			}
			if w := max(workers, 1); n > 0 && int(chunks.Load()) > min(w, n) {
				t.Fatalf("workers=%d n=%d: %d chunks, want at most %d", workers, n, chunks.Load(), min(w, n))
			}
		}
	}
}

// TestRunAppliesInOrder drives blocks with deliberately uneven validation
// cost through every depth and asserts Apply/Seal still observe strict
// block order.
func TestRunAppliesInOrder(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		src := make(chan int, 64)
		stop := make(chan struct{})
		var mu sync.Mutex
		var applied, sealed []int
		p := New(Config{Workers: 4, Depth: depth}, Stages[int, int]{
			Decode: func(r int) (int, bool) { return r, r%5 != 3 }, // drop every 5th-ish
			Validate: func(b int) {
				if b%2 == 0 {
					time.Sleep(time.Millisecond) // uneven stage cost
				}
			},
			Apply: func(b int) { mu.Lock(); applied = append(applied, b); mu.Unlock() },
			Seal:  func(b int) { mu.Lock(); sealed = append(sealed, b); mu.Unlock() },
		})
		const n = 40
		for i := 0; i < n; i++ {
			src <- i
		}
		close(src)
		p.Run(recv(src), stop)
		mu.Lock()
		defer mu.Unlock()
		want := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if i%5 != 3 {
				want = append(want, i)
			}
		}
		if len(applied) != len(want) || len(sealed) != len(want) {
			t.Fatalf("depth=%d: applied %d sealed %d, want %d", depth, len(applied), len(sealed), len(want))
		}
		for i := range want {
			if applied[i] != want[i] || sealed[i] != want[i] {
				t.Fatalf("depth=%d: out of order at %d: applied=%d sealed=%d want=%d",
					depth, i, applied[i], sealed[i], want[i])
			}
		}
	}
}

// TestRunOverlapsValidateWithApply proves the cross-block pipelining:
// with depth ≥ 2, Validate of block N+1 must be able to start while Apply
// of block N is still in progress. The test holds Apply(0) hostage until
// Validate(1) reports in — under a serial pipeline this deadlocks, so a
// timeout guards it.
func TestRunOverlapsValidateWithApply(t *testing.T) {
	src := make(chan int, 2)
	stop := make(chan struct{})
	block1Validated := make(chan struct{})
	done := make(chan struct{})
	p := New(Config{Workers: 1, Depth: 2}, Stages[int, int]{
		Decode: func(r int) (int, bool) { return r, true },
		Validate: func(b int) {
			if b == 1 {
				close(block1Validated)
			}
		},
		Apply: func(b int) {
			if b == 0 {
				select {
				case <-block1Validated:
				case <-time.After(10 * time.Second):
					t.Error("validate(1) never overlapped apply(0)")
				}
			}
		},
	})
	go func() {
		defer close(done)
		p.Run(recv(src), stop)
	}()
	src <- 0
	src <- 1
	close(src)
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("pipeline did not finish")
	}
}

// TestRunStopSealsInFlightBlock: a block already past Validate when stop
// closes is still applied and sealed — shutdown never half-commits.
func TestRunStopSealsInFlightBlock(t *testing.T) {
	src := make(chan int)
	stop := make(chan struct{})
	inApply := make(chan struct{})
	release := make(chan struct{})
	var sealedCount atomic.Int32
	p := New(Config{Workers: 1, Depth: 2}, Stages[int, int]{
		Decode: func(r int) (int, bool) { return r, true },
		Apply: func(b int) {
			close(inApply)
			<-release
		},
		Seal: func(b int) { sealedCount.Add(1) },
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(recv(src), stop)
	}()
	src <- 0
	<-inApply
	close(stop)
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after stop")
	}
	if got := sealedCount.Load(); got != 1 {
		t.Fatalf("sealed %d blocks, want 1", got)
	}
}

func rw(reads []string, writes []string) txn.RWSet {
	var s txn.RWSet
	for _, r := range reads {
		s.Reads = append(s.Reads, txn.Read{Key: r})
	}
	for _, w := range writes {
		s.Writes = append(s.Writes, txn.Write{Key: w, Value: []byte("v")})
	}
	return s
}

// TestWavesDependencies pins the scheduler's edge semantics: reads-after-
// writes separate waves, write-disjoint transactions share one, and an
// anti-dependency (write after an earlier read) may share the reader's
// wave but never precede it.
func TestWavesDependencies(t *testing.T) {
	cases := []struct {
		name string
		sets []txn.RWSet
		want [][]int
	}{
		{
			name: "independent",
			sets: []txn.RWSet{rw(nil, []string{"a"}), rw(nil, []string{"b"}), rw(nil, []string{"c"})},
			want: [][]int{{0, 1, 2}},
		},
		{
			name: "raw-chain",
			sets: []txn.RWSet{
				rw(nil, []string{"a"}),
				rw([]string{"a"}, []string{"b"}),
				rw([]string{"b"}, nil),
			},
			want: [][]int{{0}, {1}, {2}},
		},
		{
			name: "war-shares-wave",
			sets: []txn.RWSet{
				rw([]string{"a"}, nil),
				rw(nil, []string{"a"}),
			},
			want: [][]int{{0, 1}},
		},
		{
			name: "waw-shares-wave",
			sets: []txn.RWSet{
				rw(nil, []string{"a"}),
				rw(nil, []string{"a"}),
			},
			want: [][]int{{0, 1}},
		},
		{
			name: "diamond",
			sets: []txn.RWSet{
				rw(nil, []string{"a", "b"}),
				rw([]string{"a"}, []string{"c"}),
				rw([]string{"b"}, []string{"d"}),
				rw([]string{"c", "d"}, nil),
			},
			want: [][]int{{0}, {1, 2}, {3}},
		},
	}
	for _, tc := range cases {
		got := Waves(tc.sets)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d waves, want %d (%v)", tc.name, len(got), len(tc.want), got)
		}
		for w := range got {
			if len(got[w]) != len(tc.want[w]) {
				t.Fatalf("%s: wave %d = %v, want %v", tc.name, w, got[w], tc.want[w])
			}
			for i := range got[w] {
				if got[w][i] != tc.want[w][i] {
					t.Fatalf("%s: wave %d = %v, want %v", tc.name, w, got[w], tc.want[w])
				}
			}
		}
	}
}

// recv reads a test's records off a channel, as Run's next.
func recv(src <-chan int) func(stop <-chan struct{}) (int, bool) {
	return func(stop <-chan struct{}) (int, bool) {
		select {
		case r, ok := <-src:
			return r, ok
		case <-stop:
			return 0, false
		}
	}
}
