package recovery

import (
	"os"
	"reflect"
	"testing"

	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// newDeltaCheckpointer builds an interval-1 delta checkpointer for tests.
func newDeltaCheckpointer(t *testing.T, st *state.Store, dir string, keep, fullEvery int) *Checkpointer {
	t.Helper()
	c, err := NewCheckpointer(st, Options{
		Dir:       dir,
		Interval:  1,
		Keep:      keep,
		Mode:      ModeDelta,
		FullEvery: fullEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// listKinds summarizes dir's checkpoint files as height → "full"/"delta".
func listKinds(t *testing.T, dir string) map[uint64]string {
	t.Helper()
	files, err := listChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]string)
	for _, f := range files {
		kind := "full"
		if f.delta {
			kind = "delta"
		}
		// A full and a stale delta can share a height; the full wins the
		// summary.
		if _, ok := out[f.height]; !ok || !f.delta {
			out[f.height] = kind
		}
	}
	return out
}

func TestDeltaCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := state.New(memdb.New(), 8)
	defer src.Close()
	c := newDeltaCheckpointer(t, src, dir, 1<<20, 1<<20) // no pruning, no compaction

	fill(t, src, 1, 100)
	if err := c.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	fill(t, src, 2, 20) // overwrites the first 20 at a newer version
	if err := c.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	// Delete one key and add a fresh one in block 3.
	if err := src.ApplyBlock([]state.VersionedWrite{
		{Write: txn.Write{Key: "key-050", Value: nil}},
		{Write: txn.Write{Key: "extra", Value: []byte("x")}, Version: txn.Version{BlockNum: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if err := c.LastErr(); err != nil {
		t.Fatal(err)
	}

	// The chain must be one seeding full plus two deltas.
	kinds := listKinds(t, dir)
	if kinds[1] != "full" || kinds[2] != "delta" || kinds[3] != "delta" {
		t.Fatalf("chain kinds = %v, want full@1 delta@2 delta@3", kinds)
	}

	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, size, err := Restore(dst, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Fatalf("restored height %d, want 3", h)
	}
	if size <= 0 {
		t.Fatalf("restored size %d", size)
	}
	want, got := dump(src), dump(dst)
	if len(want) != len(got) {
		t.Fatalf("restored %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: restored %s, want %s", k, got[k], v)
		}
	}
	if _, deleted := got["key-050"]; deleted {
		t.Fatal("tombstoned key survived the delta restore")
	}
}

func TestDeltaCheckpointBytesTrackBlockNotStore(t *testing.T) {
	// The whole point of delta mode: with a large store and small blocks,
	// per-checkpoint bytes written drop from O(store) to O(block writes).
	run := func(mode Mode) (last int64) {
		dir := t.TempDir()
		st := state.New(memdb.New(), 8)
		defer st.Close()
		c, err := NewCheckpointer(st, Options{Dir: dir, Interval: 1, Keep: 1 << 20, Mode: mode, FullEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		fill(t, st, 1, 2000)
		if err := c.Checkpoint(1); err != nil {
			t.Fatal(err)
		}
		// A small block of 10 writes, then the checkpoint under test.
		fill(t, st, 2, 10)
		if err := c.Checkpoint(2); err != nil {
			t.Fatal(err)
		}
		c.Flush()
		if err := c.LastErr(); err != nil {
			t.Fatal(err)
		}
		_, last, _ = c.Totals()
		return last
	}
	fullLast := run(ModeFull)
	deltaLast := run(ModeDelta)
	if deltaLast <= 0 || fullLast <= 0 {
		t.Fatalf("sizes full=%d delta=%d", fullLast, deltaLast)
	}
	if deltaLast*10 > fullLast {
		t.Fatalf("delta checkpoint wrote %d bytes, full wrote %d; want ≥10× separation", deltaLast, fullLast)
	}
}

func TestDeltaPauseMetricRecorded(t *testing.T) {
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	c := newDeltaCheckpointer(t, st, dir, 1<<20, 1<<20)
	fill(t, st, 1, 50)
	if err := c.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	last, total := c.PauseNs()
	if last <= 0 || total < last {
		t.Fatalf("PauseNs = %d, %d; want positive pause", last, total)
	}
}

func TestDeltaChainCorruptMiddleFallsBackToPrefix(t *testing.T) {
	// A corrupt middle delta must truncate the restore to the intact
	// prefix — and replaying the remaining blocks on top must land
	// byte-identical to the never-crashed store (crash equivalence).
	for _, corrupt := range []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"flip-crc", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(corrupt.name, func(t *testing.T) {
			dir := t.TempDir()
			src := state.New(memdb.New(), 8)
			defer src.Close()
			c := newDeltaCheckpointer(t, src, dir, 1<<20, 1<<20)
			const blocks = 6
			for b := uint64(1); b <= blocks; b++ {
				fill(t, src, b, 30)
				if err := c.Checkpoint(b); err != nil {
					t.Fatal(err)
				}
			}
			c.Flush()
			if err := c.LastErr(); err != nil {
				t.Fatal(err)
			}
			corrupt.mut(t, deltaPath(dir, 4, 3))

			dst := state.New(memdb.New(), 8)
			defer dst.Close()
			h, _, err := Restore(dst, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if h != 3 {
				t.Fatalf("restored height %d, want intact prefix tip 3", h)
			}
			dst.Dump(func(key string, _ []byte, v txn.Version) bool {
				if v.BlockNum > 3 {
					t.Fatalf("key %s carries version %v leaked past the corrupt delta", key, v)
				}
				return true
			})
			// Replay blocks 4..6 — the deterministic tail a ledger replay
			// would drive — and require byte-identical equivalence.
			for b := uint64(h + 1); b <= blocks; b++ {
				fill(t, dst, b, 30)
			}
			want, got := dump(src), dump(dst)
			if len(want) != len(got) {
				t.Fatalf("replayed store has %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %s diverged after prefix restore + replay: %s, want %s", k, got[k], v)
				}
			}
		})
	}
}

func TestDeltaChainCorruptFullFallsBackToOlderChain(t *testing.T) {
	dir := t.TempDir()
	src := state.New(memdb.New(), 8)
	defer src.Close()
	// FullEvery 3 → full@1 (seed), delta@2, delta@3, full@4 (compacted),
	// delta@5.
	c := newDeltaCheckpointer(t, src, dir, 1<<20, 3)
	for b := uint64(1); b <= 5; b++ {
		fill(t, src, b, 20)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if err := c.LastErr(); err != nil {
		t.Fatal(err)
	}
	kinds := listKinds(t, dir)
	if kinds[1] != "full" || kinds[4] != "full" || kinds[2] != "delta" || kinds[3] != "delta" || kinds[5] != "delta" {
		t.Fatalf("chain kinds = %v, want fulls at 1 and 4", kinds)
	}

	// Corrupt the newer full: restore must fall back to the full@1 chain
	// and walk its deltas to height 3 (delta@5 links to full@4, not 3, so
	// the older chain tops out there).
	data, err := os.ReadFile(ckptPath(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(ckptPath(dir, 4), data, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Fatalf("restored height %d, want 3 (older chain's tip)", h)
	}
}

func TestDeltaCompactionFullMatchesStore(t *testing.T) {
	dir := t.TempDir()
	src := state.New(memdb.New(), 8)
	defer src.Close()
	c := newDeltaCheckpointer(t, src, dir, 1<<20, 3)
	for b := uint64(1); b <= 4; b++ {
		fill(t, src, b, 50)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if err := c.LastErr(); err != nil {
		t.Fatal(err)
	}
	// Restore from the compacted full alone (maxHeight 4 with deltas 2,3
	// folded in) and diff against the live store at height 4.
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h != 4 {
		t.Fatalf("restored height %d, want the compacted full at 4", h)
	}
	want, got := dump(src), dump(dst)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: compacted restore %s, want %s", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("compacted restore has %d keys, want %d", len(got), len(want))
	}
}

func TestDeltaPruneKeepsChainDependencies(t *testing.T) {
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	// Keep 2 with FullEvery 4: after 10 checkpoints the two newest files
	// are deltas whose chain roots at an older full — pruning must keep
	// that full and every delta between, and never orphan a delta.
	c := newDeltaCheckpointer(t, st, dir, 2, 4)
	const blocks = 10
	for b := uint64(1); b <= blocks; b++ {
		fill(t, st, b, 20)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	if err := c.LastErr(); err != nil {
		t.Fatal(err)
	}

	files, err := listChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files) >= blocks {
		t.Fatalf("pruning retained %d of %d checkpoint files", len(files), blocks)
	}
	present := make(map[uint64]chainFile)
	for _, f := range files {
		present[f.height] = f
	}
	// Every retained delta's base chain must terminate at a retained full.
	for _, f := range files {
		cur := f
		for cur.delta {
			next, ok := present[cur.base]
			if !ok {
				t.Fatalf("delta@%d depends on height %d, which was pruned (files: %+v)", f.height, cur.base, files)
			}
			cur = next
		}
	}
	// And the surviving chain must still restore to the tip.
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != blocks {
		t.Fatalf("post-prune restore reached %d, want %d", h, blocks)
	}
	want, got := dump(st), dump(dst)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: post-prune restore %s, want %s", k, got[k], v)
		}
	}
}

func TestDeltaRestoreHonoursMaxHeight(t *testing.T) {
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	c := newDeltaCheckpointer(t, st, dir, 1<<20, 1<<20)
	for b := uint64(1); b <= 5; b++ {
		fill(t, st, b, 20)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Fatalf("restored height %d, want 3 (crash before delta 4)", h)
	}
	dst.Dump(func(key string, _ []byte, v txn.Version) bool {
		if v.BlockNum > 3 {
			t.Fatalf("key %s carries future version %v", key, v)
		}
		return true
	})
}

func TestDeltaCloseDiscardsQueuedJobs(t *testing.T) {
	// Close models the crash: queued-but-unwritten deltas are lost, and
	// the chain on disk still restores to whatever the worker finished.
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	c := newDeltaCheckpointer(t, st, dir, 1<<20, 1<<20)
	fill(t, st, 1, 10)
	if err := c.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	c.Close()
	if err := c.Checkpoint(2); err == nil {
		t.Fatal("Checkpoint on a closed checkpointer succeeded")
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 0)
	if err != nil || h != 1 {
		t.Fatalf("Restore after close = %d, %v; want 1, nil", h, err)
	}
}

func TestFullModeStillPrunesByCount(t *testing.T) {
	// Full mode has no deltas; chain-aware pruning degenerates to the old
	// keep-newest-N behavior (TestCheckpointerIntervalAndPruning covers
	// the interval half; this pins the interaction with pruneChains).
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	c, err := NewCheckpointer(st, Options{Dir: dir, Interval: 1, Keep: 2, Mode: ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for b := uint64(1); b <= 5; b++ {
		fill(t, st, b, 5)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	files, err := listChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != (chainFile{height: 4}) || files[1] != (chainFile{height: 5}) {
		t.Fatalf("retained %+v, want fulls at 4 and 5", files)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"full": ModeFull, "delta": ModeDelta} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("incremental"); err == nil {
		t.Fatal("ParseMode accepted garbage")
	}
	if ModeFull.String() != "full" || ModeDelta.String() != "delta" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestDeltaRebuildStoreReseedsChain(t *testing.T) {
	// After a rebuild bounded below the newest checkpoint, the rebound
	// checkpointer must seed a fresh full rather than linking a delta
	// onto stale newer files — and a restore over the mixed directory
	// must still land on a consistent chain.
	dir := t.TempDir()
	ckptDir := dir + "/ckpt"
	src := state.New(memdb.New(), 8)
	defer src.Close()
	c, err := NewCheckpointer(src, Options{Dir: ckptDir, Interval: 1, Keep: 1 << 20, Mode: ModeDelta, FullEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for b := uint64(1); b <= 4; b++ {
		fill(t, src, b, 20)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()

	// Crash with only checkpoints ≤ 2 surviving the rewind.
	c.Close()
	st := state.New(memdb.New(), 0)
	defer st.Close()
	ckpt, stats, err := RestoreCheckpointer(st, Options{Dir: ckptDir, Interval: 1, Keep: 1 << 20, Mode: ModeDelta, FullEvery: 1 << 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if stats.CheckpointHeight != 2 {
		t.Fatalf("restored height %d, want 2", stats.CheckpointHeight)
	}
	// Replay block 3 (deterministic) and checkpoint: must be a seeding
	// full at 3, not a delta onto the stale chain.
	fill(t, st, 3, 20)
	if err := ckpt.Checkpoint(3); err != nil {
		t.Fatal(err)
	}
	ckpt.Flush()
	if err := ckpt.LastErr(); err != nil {
		t.Fatal(err)
	}
	kinds := listKinds(t, ckptDir)
	if kinds[3] != "full" {
		t.Fatalf("post-rebuild checkpoint at 3 is %q, want a chain-seeding full (kinds %v)", kinds[3], kinds)
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, ckptDir, 3)
	if err != nil || h != 3 {
		t.Fatalf("Restore = %d, %v; want 3", h, err)
	}
	want, got := dump(st), dump(dst)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: %s, want %s", k, got[k], v)
		}
	}
}

func TestListChainIgnoresTempFiles(t *testing.T) {
	// A crash mid-write leaves .tmp leftovers; Sscanf alone would match
	// "ckpt-….ckpt.tmp", and a phantom chain entry would distort pruning
	// and restore fallback.
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	c := newDeltaCheckpointer(t, st, dir, 1<<20, 1<<20)
	for b := uint64(1); b <= 2; b++ {
		fill(t, st, b, 10)
		if err := c.Checkpoint(b); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	for _, stray := range []string{
		ckptPath(dir, 3) + ".tmp",
		deltaPath(dir, 4, 2) + ".tmp",
	} {
		if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, err := listChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.height > 2 {
			t.Fatalf("phantom chain entry for temp file: %+v", f)
		}
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	if h, _, err := Restore(dst, dir, 0); err != nil || h != 2 {
		t.Fatalf("Restore with stray temps = %d, %v; want 2", h, err)
	}
}

// One delta the worker fails to write must not break the chain for good:
// the next write covers it, so the checkpoints after it still restore to
// the newest height and equal the store — whether that next write is a
// delta or a fold.
func TestDeltaWriteFailureCoveredByNextWrite(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fullEvery int
	}{{"next-is-delta", 1 << 20}, {"next-is-fold", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := state.New(memdb.New(), 8)
			defer src.Close()
			c := newDeltaCheckpointer(t, src, dir, 1<<20, tc.fullEvery)
			fill(t, src, 1, 100)
			if err := c.Checkpoint(1); err != nil {
				t.Fatal(err)
			}
			// Height 2's delta cannot be written: a directory holds the name
			// of its temporary file.
			blocker := deltaPath(dir, 2, 1) + ".tmp"
			if err := os.Mkdir(blocker, 0o755); err != nil {
				t.Fatal(err)
			}
			fill(t, src, 2, 20)
			if err := c.Checkpoint(2); err != nil {
				t.Fatal(err)
			}
			c.Flush()
			if c.LastErr() == nil {
				t.Fatal("the blocked write succeeded")
			}
			if err := os.Remove(blocker); err != nil {
				t.Fatal(err)
			}
			fill(t, src, 3, 5) // overwrites part of what only height 2 wrote
			if err := c.Checkpoint(3); err != nil {
				t.Fatal(err)
			}
			if err := src.ApplyBlock([]state.VersionedWrite{
				{Write: txn.Write{Key: "key-050", Value: nil}},
				{Write: txn.Write{Key: "extra", Value: []byte("x")}, Version: txn.Version{BlockNum: 4}},
			}); err != nil {
				t.Fatal(err)
			}
			if err := c.Checkpoint(4); err != nil {
				t.Fatal(err)
			}
			c.Flush()

			dst := state.New(memdb.New(), 8)
			defer dst.Close()
			h, _, err := Restore(dst, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if h != 4 {
				t.Fatalf("restored height %d, want 4 (files %v)", h, listKinds(t, dir))
			}
			if want, got := dump(src), dump(dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored state differs from the store:\n got %v\nwant %v", got, want)
			}
		})
	}
}
