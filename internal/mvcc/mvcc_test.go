package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dichotomy/internal/israce"
	"dichotomy/internal/tso"
)

func TestPrewriteCommitGet(t *testing.T) {
	s := NewStore()
	o := tso.New()
	start := o.Next()
	if err := s.Prewrite("k", []byte("v1"), false, start, "k"); err != nil {
		t.Fatal(err)
	}
	commit := o.Next()
	if err := s.Commit("k", start, commit); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k", o.Next())
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestSnapshotReadsOldVersion(t *testing.T) {
	s := NewStore()
	o := tso.New()
	// Version 1.
	st1 := o.Next()
	s.Prewrite("k", []byte("v1"), false, st1, "k")
	ct1 := o.Next()
	s.Commit("k", st1, ct1)
	snapshotTS := o.Next()
	// Version 2 commits after the snapshot.
	st2 := o.Next()
	s.Prewrite("k", []byte("v2"), false, st2, "k")
	s.Commit("k", st2, o.Next())

	got, err := s.Get("k", snapshotTS)
	if err != nil || string(got) != "v1" {
		t.Fatalf("snapshot read = %q, %v; want v1", got, err)
	}
	got, _ = s.Get("k", o.Next())
	if string(got) != "v2" {
		t.Fatalf("latest read = %q, want v2", got)
	}
}

func TestReadBlockedByLock(t *testing.T) {
	s := NewStore()
	o := tso.New()
	start := o.Next()
	s.Prewrite("k", []byte("v"), false, start, "k")
	_, err := s.Get("k", o.Next())
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("err = %v, want ErrLocked", err)
	}
	// A snapshot older than the lock is unaffected.
	if _, err := s.Get("k", start-1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old snapshot err = %v, want not-found", err)
	}
}

func TestPrewriteConflictsWithLock(t *testing.T) {
	s := NewStore()
	o := tso.New()
	t1 := o.Next()
	t2 := o.Next()
	if err := s.Prewrite("k", []byte("a"), false, t1, "k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Prewrite("k", []byte("b"), false, t2, "k"); !errors.Is(err, ErrLocked) {
		t.Fatalf("err = %v, want ErrLocked", err)
	}
	// Same transaction re-prewriting is idempotent.
	if err := s.Prewrite("k", []byte("a2"), false, t1, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	s := NewStore()
	o := tso.New()
	early := o.Next() // snapshot taken before the other writer commits
	st := o.Next()
	s.Prewrite("k", []byte("v"), false, st, "k")
	s.Commit("k", st, o.Next())
	err := s.Prewrite("k", []byte("late"), false, early, "k")
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
}

func TestRollbackReleasesLock(t *testing.T) {
	s := NewStore()
	o := tso.New()
	st := o.Next()
	s.Prewrite("k", []byte("v"), false, st, "k")
	s.Rollback("k", st)
	if s.Locked("k") {
		t.Fatal("lock survived rollback")
	}
	if _, err := s.Get("k", o.Next()); !errors.Is(err, ErrNotFound) {
		t.Fatal("rolled-back write became visible")
	}
	// Rollback of a foreign lock is a no-op.
	st2 := o.Next()
	s.Prewrite("k", []byte("v"), false, st2, "k")
	s.Rollback("k", st2+99)
	if !s.Locked("k") {
		t.Fatal("foreign rollback removed the lock")
	}
}

func TestCommitWithoutLockFails(t *testing.T) {
	s := NewStore()
	if err := s.Commit("k", 5, 6); err == nil {
		t.Fatal("commit of missing lock succeeded")
	}
}

func TestDeleteMarker(t *testing.T) {
	s := NewStore()
	o := tso.New()
	st := o.Next()
	s.Prewrite("k", []byte("v"), false, st, "k")
	s.Commit("k", st, o.Next())
	st2 := o.Next()
	s.Prewrite("k", nil, true, st2, "k")
	s.Commit("k", st2, o.Next())
	if _, err := s.Get("k", o.Next()); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key visible")
	}
	if s.Keys() != 0 {
		t.Fatalf("Keys = %d, want 0", s.Keys())
	}
}

func TestLatestCommitTS(t *testing.T) {
	s := NewStore()
	o := tso.New()
	if s.LatestCommitTS("k") != 0 {
		t.Fatal("unwritten key has a commit ts")
	}
	st := o.Next()
	s.Prewrite("k", []byte("v"), false, st, "k")
	ct := o.Next()
	s.Commit("k", st, ct)
	if s.LatestCommitTS("k") != ct {
		t.Fatalf("LatestCommitTS = %d, want %d", s.LatestCommitTS("k"), ct)
	}
}

func TestScan(t *testing.T) {
	s := NewStore()
	o := tso.New()
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%02d", i)
		st := o.Next()
		s.Prewrite(k, []byte("v"), false, st, k)
		s.Commit(k, st, o.Next())
	}
	keys := s.Scan("k05", 3, o.Next())
	if len(keys) != 3 || keys[0] != "k05" || keys[2] != "k07" {
		t.Fatalf("Scan = %v", keys)
	}
}

func TestBytesCountsLiveStateOnly(t *testing.T) {
	s := NewStore()
	o := tso.New()
	st := o.Next()
	s.Prewrite("key", make([]byte, 100), false, st, "key")
	s.Commit("key", st, o.Next())
	st2 := o.Next()
	s.Prewrite("key", make([]byte, 200), false, st2, "key")
	s.Commit("key", st2, o.Next())
	want := int64(3 + 200) // only the newest version counts
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}

func TestConcurrentNonOverlappingWriters(t *testing.T) {
	s := NewStore()
	o := tso.New()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				st := o.Next()
				if err := s.Prewrite(k, []byte("v"), false, st, k); err != nil {
					errs <- err
					return
				}
				if err := s.Commit(k, st, o.Next()); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Keys() != 800 {
		t.Fatalf("Keys = %d, want 800", s.Keys())
	}
}

func TestContendedKeySerializes(t *testing.T) {
	// Concurrent writers on one key: exactly the lock/conflict dance that
	// throttles TiDB under skew. At least one attempt must succeed per
	// round and the final state must be a value some writer wrote.
	s := NewStore()
	o := tso.New()
	var wg sync.WaitGroup
	var committed Counter
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st := o.Next()
				if err := s.Prewrite("hot", []byte{byte(w)}, false, st, "hot"); err != nil {
					continue // lock or ww-conflict: abort and move on
				}
				if err := s.Commit("hot", st, o.Next()); err == nil {
					committed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if committed.Load() == 0 {
		t.Fatal("no writer ever succeeded on the hot key")
	}
	if s.Locked("hot") {
		t.Fatal("lock leaked")
	}
}

// Counter is a tiny atomic counter for tests.
type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Add(d int) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *Counter) Load() int { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

// Taking and clearing a Percolator lock on a key the store holds allocates
// nothing: the lock lives in the key's entry, and the key is looked up by
// its bytes.
func TestLockCycleAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	s := NewStore()
	key, value := []byte("kv/user000000001234"), []byte("v")
	if err := s.PrewriteBytes(key, value, false, 1, key); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitBytes(key, 1, 2); err != nil {
		t.Fatal(err)
	}
	ts := uint64(2)
	if got := testing.AllocsPerRun(200, func() {
		ts++
		if err := s.PrewriteBytes(key, value, false, ts, key); err != nil {
			t.Fatal(err)
		}
		s.RollbackBytes(key, ts)
	}); got != 0 {
		t.Errorf("prewrite → rollback: %v allocs, want 0", got)
	}
	if s.Locked(string(key)) {
		t.Fatal("rollback left the lock")
	}
}
