package state

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dichotomy/internal/contract"
	"dichotomy/internal/israce"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

func put(k, v string) txn.Write { return txn.Write{Key: k, Value: []byte(v)} }

func ver(block uint64, tx uint32) txn.Version { return txn.Version{BlockNum: block, TxNum: tx} }

func TestStoreApplyBlockAndGet(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	if err := s.ApplyBlock([]VersionedWrite{
		{Write: put("a", "1"), Version: ver(1, 0)},
		{Write: put("b", "2"), Version: ver(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	v, vv, err := s.Get("a")
	if err != nil || string(v) != "1" || vv != ver(1, 0) {
		t.Fatalf("Get a = %q %v %v", v, vv, err)
	}
	// Overwrite and delete in one block; later writes of a key win.
	if err := s.ApplyBlock([]VersionedWrite{
		{Write: put("a", "old"), Version: ver(2, 0)},
		{Write: put("a", "new"), Version: ver(2, 1)},
		{Write: txn.Write{Key: "b"}, Version: ver(2, 2)},
	}); err != nil {
		t.Fatal(err)
	}
	v, vv, _ = s.Get("a")
	if string(v) != "new" || vv != ver(2, 1) {
		t.Fatalf("a = %q %v after overwrite", v, vv)
	}
	if _, _, err := s.Get("b"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted b: err = %v", err)
	}
	if _, ok := s.CommittedVersion("b"); ok {
		t.Fatal("deleted b retains a version")
	}
	if _, _, err := s.GetState("b"); !errors.Is(err, contract.ErrNotFound) {
		t.Fatalf("GetState of absent key: %v", err)
	}
}

func TestCompareAndSetVersion(t *testing.T) {
	s := New(memdb.New(), 4)
	defer s.Close()
	// Zero expect matches an absent key.
	if !s.CompareAndSetVersion("k", txn.Version{}, ver(1, 0)) {
		t.Fatal("CAS from absent failed")
	}
	if s.CompareAndSetVersion("k", txn.Version{}, ver(9, 9)) {
		t.Fatal("stale CAS succeeded")
	}
	if !s.CompareAndSetVersion("k", ver(1, 0), ver(2, 0)) {
		t.Fatal("CAS from current failed")
	}
	// Zero next deletes the entry.
	if !s.CompareAndSetVersion("k", ver(2, 0), txn.Version{}) {
		t.Fatal("CAS delete failed")
	}
	if _, ok := s.CommittedVersion("k"); ok {
		t.Fatal("entry survived CAS delete")
	}
}

// TestSnapshotExcludesBlockCommit pins a snapshot, lets a block commit
// race against it, and checks the snapshot never observes any part of the
// block.
func TestSnapshotExcludesBlockCommit(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	const n = 64
	var block []VersionedWrite
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := s.ApplyBlock([]VersionedWrite{{Write: put(k, "old"), Version: ver(1, uint32(i))}}); err != nil {
			t.Fatal(err)
		}
		block = append(block, VersionedWrite{Write: put(k, "new"), Version: ver(2, uint32(i))})
	}
	snap := s.Snapshot()
	committed := make(chan error, 1)
	go func() { committed <- s.ApplyBlock(block) }()
	for i := 0; i < n; i++ {
		v, vv, err := snap.Get(fmt.Sprintf("k%02d", i))
		if err != nil || string(v) != "old" || vv.BlockNum != 1 {
			t.Errorf("snapshot saw k%02d = %q %v %v mid-commit", i, v, vv, err)
		}
	}
	snap.Release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, _, _ := s.Get(fmt.Sprintf("k%02d", i)); string(v) != "new" {
			t.Fatalf("k%02d = %q after release", i, v)
		}
	}
}

func TestBlockReadYourWrites(t *testing.T) {
	s := New(memdb.New(), 4)
	defer s.Close()
	if err := s.ApplyBlock([]VersionedWrite{{Write: put("x", "base"), Version: ver(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	b := s.NewBlock()
	b.Stage(put("x", "staged"), ver(2, 0))
	b.Stage(txn.Write{Key: "y"}, ver(2, 1)) // staged delete of an absent key
	if v, vv, err := b.GetState("x"); err != nil || string(v) != "staged" || vv != ver(2, 0) {
		t.Fatalf("block read x = %q %v %v", v, vv, err)
	}
	if _, _, err := b.GetState("y"); !errors.Is(err, contract.ErrNotFound) {
		t.Fatalf("staged delete visible: %v", err)
	}
	if _, ok := b.CommittedVersion("y"); ok {
		t.Fatal("staged delete has a version")
	}
	// The store is untouched until Commit.
	if v, _, _ := s.Get("x"); string(v) != "base" {
		t.Fatalf("store saw staged write: %q", v)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get("x"); string(v) != "staged" {
		t.Fatalf("x = %q after commit", v)
	}
	if b.Pending() != 0 {
		t.Fatalf("block not reset: %d pending", b.Pending())
	}
}

// batchCountingEngine wraps memdb and counts ApplyBatch calls, verifying
// the block-commit path uses the engine's batch fast path per stripe.
type batchCountingEngine struct {
	*memdb.DB
	mu      sync.Mutex
	batches int
}

func (e *batchCountingEngine) ApplyBatch(writes []storage.Write) error {
	e.mu.Lock()
	e.batches++
	e.mu.Unlock()
	return e.DB.ApplyBatch(writes)
}

func TestApplyBlockGroupsPerStripe(t *testing.T) {
	eng := &batchCountingEngine{DB: memdb.New()}
	s := New(eng, 8)
	defer s.Close()
	var block []VersionedWrite
	stripes := map[int]bool{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		block = append(block, VersionedWrite{Write: put(k, "v"), Version: ver(1, uint32(i))})
		stripes[s.versions.ShardOf(k)] = true
	}
	if err := s.ApplyBlock(block); err != nil {
		t.Fatal(err)
	}
	if eng.batches != len(stripes) {
		t.Fatalf("ApplyBatch called %d times, want one per touched stripe (%d)", eng.batches, len(stripes))
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestConcurrentMixedOps drives reads, CAS, snapshots and block commits
// from many goroutines; run under -race this is the layer's thread-safety
// proof.
func TestConcurrentMixedOps(t *testing.T) {
	s := New(memdb.New(), 16)
	defer s.Close()
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
		if err := s.ApplyBlock([]VersionedWrite{{Write: put(keys[i], "0"), Version: ver(1, uint32(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := keys[(w*131+i)%len(keys)]
				switch i % 4 {
				case 0:
					if _, _, err := s.Get(k); err != nil && !errors.Is(err, storage.ErrNotFound) {
						t.Errorf("get %s: %v", k, err)
					}
				case 1:
					cur, _ := s.CommittedVersion(k)
					s.CompareAndSetVersion(k, cur, ver(uint64(w+2), uint32(i)))
				case 2:
					snap := s.Snapshot()
					_, _, _ = snap.Get(k)
					snap.Release()
				default:
					if err := s.ApplyBlock([]VersionedWrite{{Write: put(k, "w"), Version: ver(uint64(w+2), uint32(i))}}); err != nil {
						t.Errorf("apply %s: %v", k, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
}

func TestDumpYieldsValuesAndVersions(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	if err := s.ApplyBlock([]VersionedWrite{
		{Write: put("a", "1"), Version: ver(3, 0)},
		{Write: put("b", "2"), Version: ver(3, 1)},
		{Write: put("c", "3"), Version: ver(4, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	s.Dump(func(key string, value []byte, v txn.Version) bool {
		got[key] = fmt.Sprintf("%s@%d.%d", value, v.BlockNum, v.TxNum)
		return true
	})
	want := map[string]string{"a": "1@3.0", "b": "2@3.1", "c": "3@4.0"}
	if len(got) != len(want) {
		t.Fatalf("Dump yielded %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Dump[%s] = %s, want %s", k, got[k], v)
		}
	}
	// Early stop is honoured.
	n := 0
	s.Dump(func(string, []byte, txn.Version) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Dump visited %d keys", n)
	}
}

func TestDumpExcludesBlockCommits(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	if err := s.ApplyBlock([]VersionedWrite{
		{Write: put("k0", "x"), Version: ver(1, 0)},
		{Write: put("k1", "x"), Version: ver(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	// A block commit racing the dump must not tear it: every dumped
	// version belongs to the same block boundary (all old or all new).
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.ApplyBlock([]VersionedWrite{
			{Write: put("k0", "y"), Version: ver(2, 0)},
			{Write: put("k1", "y"), Version: ver(2, 1)},
		})
	}()
	for i := 0; i < 50; i++ {
		blocks := make(map[uint64]bool)
		s.Dump(func(_ string, _ []byte, v txn.Version) bool {
			blocks[v.BlockNum] = true
			return true
		})
		if len(blocks) > 1 {
			t.Fatalf("torn dump: saw versions from blocks %v", blocks)
		}
	}
	<-done
}

func TestDirtyTrackingOffByDefault(t *testing.T) {
	// Stores without a delta checkpointer never enable tracking; the
	// commit path must not accumulate (or pay for) a dirty set.
	s := New(memdb.New(), 8)
	defer s.Close()
	if err := s.ApplyBlock([]VersionedWrite{{Write: put("a", "1"), Version: ver(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	if st := s.DirtyStats(); st.Keys != 0 || st.ApproxBytes != 0 {
		t.Fatalf("untracked store accumulated dirty state: %+v", st)
	}
}

func TestDirtyTrackingFollowsBlockWrites(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	s.EnableDirtyTracking()
	if st := s.DirtyStats(); st.Keys != 0 || st.ApproxBytes != 0 {
		t.Fatalf("fresh store dirty stats = %+v", st)
	}
	if err := s.ApplyBlock([]VersionedWrite{
		{Write: put("a", "1"), Version: ver(1, 0)},
		{Write: put("b", "2"), Version: ver(1, 1)},
		{Write: put("a", "3"), Version: ver(1, 2)}, // rewrite: same key, one dirty entry
	}); err != nil {
		t.Fatal(err)
	}
	st := s.DirtyStats()
	if st.Keys != 2 {
		t.Fatalf("dirty keys = %d, want 2", st.Keys)
	}
	if st.ApproxBytes <= 0 {
		t.Fatalf("dirty bytes = %d", st.ApproxBytes)
	}

	got := make(map[string]string)
	s.DumpDirty(func(key string, value []byte, v txn.Version, live bool) bool {
		if !live {
			t.Fatalf("key %s reported dead", key)
		}
		got[key] = string(value) + "@" + fmt.Sprint(v.TxNum)
		return true
	})
	// DumpDirty reads the committed state: the rewrite of a wins.
	if len(got) != 2 || got["a"] != "3@2" || got["b"] != "2@1" {
		t.Fatalf("DumpDirty = %v", got)
	}

	s.ResetDirty()
	if st := s.DirtyStats(); st.Keys != 0 || st.ApproxBytes != 0 {
		t.Fatalf("post-reset dirty stats = %+v", st)
	}
	n := 0
	s.DumpDirty(func(string, []byte, txn.Version, bool) bool { n++; return true })
	if n != 0 {
		t.Fatalf("post-reset DumpDirty visited %d keys", n)
	}

	// Only the keys of the next interval are dirty; untouched keys stay
	// out even though they remain in the store.
	if err := s.ApplyBlock([]VersionedWrite{
		{Write: put("b", "9"), Version: ver(2, 0)},
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.DirtyStats(); st.Keys != 1 {
		t.Fatalf("second-interval dirty keys = %d, want 1", st.Keys)
	}
}

func TestDirtyTrackingRecordsDeletesAsTombstones(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	s.EnableDirtyTracking()
	if err := s.ApplyBlock([]VersionedWrite{{Write: put("gone", "x"), Version: ver(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	s.ResetDirty()
	if err := s.ApplyBlock([]VersionedWrite{{Write: txn.Write{Key: "gone", Value: nil}, Version: ver(2, 0)}}); err != nil {
		t.Fatal(err)
	}
	seen := false
	s.DumpDirty(func(key string, value []byte, _ txn.Version, live bool) bool {
		if key != "gone" {
			t.Fatalf("unexpected dirty key %s", key)
		}
		if live || value != nil {
			t.Fatalf("deleted key reported live (value %q)", value)
		}
		seen = true
		return true
	})
	if !seen {
		t.Fatal("tombstone missing from DumpDirty")
	}
}

func TestDirtyTrackingFollowsVersionCAS(t *testing.T) {
	s := New(memdb.New(), 8)
	defer s.Close()
	s.EnableDirtyTracking()
	if err := s.ApplyBlock([]VersionedWrite{{Write: put("k", "v"), Version: ver(1, 0)}}); err != nil {
		t.Fatal(err)
	}
	s.ResetDirty()
	// A failed CAS dirties nothing; a successful one dirties the key.
	if s.CompareAndSetVersion("k", ver(9, 9), ver(2, 0)) {
		t.Fatal("CAS with wrong expectation succeeded")
	}
	if st := s.DirtyStats(); st.Keys != 0 {
		t.Fatalf("failed CAS dirtied %d keys", st.Keys)
	}
	if !s.CompareAndSetVersion("k", ver(1, 0), ver(2, 0)) {
		t.Fatal("CAS failed")
	}
	if st := s.DirtyStats(); st.Keys != 1 {
		t.Fatalf("successful CAS dirtied %d keys, want 1", st.Keys)
	}
}

// TestApplyBlockGroupsInSliceOrder commits blocks that write each key
// several times, spread over every stripe, and checks that each key ends
// with its last write: grouping by stripe keeps slice order within a group.
func TestApplyBlockGroupsInSliceOrder(t *testing.T) {
	for _, keys := range []int{5, 100} {
		s := New(memdb.New(), 8)
		var block []VersionedWrite
		for round := range 3 {
			for i := range keys {
				v := fmt.Sprintf("v%d", round)
				block = append(block, VersionedWrite{Write: put(fmt.Sprintf("k%d", i), v), Version: ver(1, uint32(len(block)))})
			}
		}
		if err := s.ApplyBlock(block); err != nil {
			t.Fatal(err)
		}
		for i, w := range block[len(block)-keys:] {
			v, vv, err := s.Get(w.Key)
			if err != nil || string(v) != "v2" || vv != w.Version {
				t.Fatalf("%d keys: k%d = %q %v %v, want the last write %q %v", keys, i, v, vv, err, "v2", w.Version)
			}
		}
		s.Close()
	}
}

// TestDumpDirtyResetDirtyAllocs pins a delta checkpoint's store side in
// steady state: a block of overwrites dirties its keys, DumpDirty hands
// them over with the engine's own values, and ResetDirty clears the set in
// place. Past the block's skiplist entries (TestApplyBlockAndGetAllocs),
// the cycle allocates one thing: DumpDirty's sorted key list.
func TestDumpDirtyResetDirtyAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	s := New(memdb.New(), 0)
	defer s.Close()
	s.EnableDirtyTracking()
	const keys = 64
	block := make([]VersionedWrite, keys)
	for i := range block {
		block[i] = VersionedWrite{Write: put(fmt.Sprintf("chk:acct%08d", i), "balance"), Version: ver(1, uint32(i))}
	}
	dumped := 0
	cycle := func() {
		if err := s.ApplyBlock(block); err != nil {
			t.Fatal(err)
		}
		s.DumpDirty(func(string, []byte, txn.Version, bool) bool { dumped++; return true })
		s.ResetDirty()
	}
	cycle()
	if dumped != keys {
		t.Fatalf("DumpDirty visited %d keys, want %d", dumped, keys)
	}
	if perCycle := testing.AllocsPerRun(100, cycle); perCycle != keys+1 {
		t.Fatalf("a block, DumpDirty and ResetDirty: %.1f allocs, want %d (one per skiplist entry and the key list)", perCycle, keys+1)
	}
}

// TestApplyBlockAndGetAllocs pins what the store itself adds to a block of
// overwrites on memdb, small or large, and to a point read: nothing. The
// block's keys reach the engine as views of their strings and its values as
// the write set's own slices, grouped by stripe in scratch the store
// reuses, so the only allocation left is the skiplist's, one per
// overwritten entry (its value header). A Get hands the engine a view of
// its key.
func TestApplyBlockAndGetAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	s := New(memdb.New(), 0)
	defer s.Close()
	var block []VersionedWrite
	for _, keys := range []int{16, 200} {
		block = make([]VersionedWrite, keys)
		for i := range block {
			block[i] = VersionedWrite{Write: put(fmt.Sprintf("chk:acct%08d", i), "balance"), Version: ver(1, uint32(i))}
		}
		if err := s.ApplyBlock(block); err != nil {
			t.Fatal(err)
		}
		perBlock := testing.AllocsPerRun(100, func() {
			if err := s.ApplyBlock(block); err != nil {
				t.Fatal(err)
			}
		})
		if perBlock != float64(keys) {
			t.Fatalf("ApplyBlock of %d overwrites: %.1f allocs, want %d (one per skiplist entry)", keys, perBlock, keys)
		}
	}
	key := block[3].Key
	perGet := testing.AllocsPerRun(100, func() {
		if _, _, err := s.Get(key); err != nil {
			t.Fatal(err)
		}
	})
	if perGet != 0 {
		t.Fatalf("Get: %.1f allocs, want 0", perGet)
	}
}

// BenchmarkApplyBlock commits a 64-write block of overwrites into a
// 2 000-key store on memdb, the order-execute commit a replica repeats for
// every block. Its allocs/op is the store's and the engine's own cost per
// block (CI gates it): one skiplist value header per write.
func BenchmarkApplyBlock(b *testing.B) {
	const keys, blockKeys = 2000, 64
	s := New(memdb.New(), 0)
	defer s.Close()
	key := func(i int) string { return fmt.Sprintf("chk:acct%08d", i) }
	for i := range keys {
		if err := s.ApplyBlock([]VersionedWrite{{Write: put(key(i), "balance"), Version: ver(1, 0)}}); err != nil {
			b.Fatal(err)
		}
	}
	block := make([]VersionedWrite, blockKeys)
	for i := range block {
		block[i] = VersionedWrite{Write: put(key(i*keys/blockKeys), "12345678"), Version: ver(2, uint32(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := s.ApplyBlock(block); err != nil {
			b.Fatal(err)
		}
	}
}
