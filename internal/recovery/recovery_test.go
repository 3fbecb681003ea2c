package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

func fill(t *testing.T, st *state.Store, block uint64, n int) {
	t.Helper()
	writes := make([]state.VersionedWrite, n)
	for i := range writes {
		writes[i] = state.VersionedWrite{
			Write: txn.Write{
				Key:   fmt.Sprintf("key-%03d", i),
				Value: []byte(fmt.Sprintf("v%d-%d", block, i)),
			},
			Version: txn.Version{BlockNum: block, TxNum: uint32(i)},
		}
	}
	if err := st.ApplyBlock(writes); err != nil {
		t.Fatal(err)
	}
}

func dump(st *state.Store) map[string]string {
	out := make(map[string]string)
	st.Dump(func(key string, value []byte, v txn.Version) bool {
		out[key] = fmt.Sprintf("%s@%d.%d", value, v.BlockNum, v.TxNum)
		return true
	})
	return out
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := state.New(memdb.New(), 8)
	defer src.Close()
	fill(t, src, 1, 100)
	fill(t, src, 2, 50) // overwrites the first 50 at a newer version

	if _, err := WriteCheckpoint(dir, 2, src); err != nil {
		t.Fatal(err)
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, size, err := Restore(dst, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("restored height %d, want 2", h)
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
}

func TestRestoreHonoursMaxHeight(t *testing.T) {
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	for b := uint64(1); b <= 3; b++ {
		fill(t, st, b, 20)
		if _, err := WriteCheckpoint(dir, b, st); err != nil {
			t.Fatal(err)
		}
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("restored height %d, want 2 (crash before checkpoint 3)", h)
	}
	// Every restored version must predate checkpoint 3.
	dst.Dump(func(key string, _ []byte, v txn.Version) bool {
		if v.BlockNum > 2 {
			t.Fatalf("key %s carries future version %v", key, v)
		}
		return true
	})
}

func TestRestoreFallsBackAcrossCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	fill(t, st, 1, 30)
	if _, err := WriteCheckpoint(dir, 1, st); err != nil {
		t.Fatal(err)
	}
	fill(t, st, 2, 30)
	if _, err := WriteCheckpoint(dir, 2, st); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint's tail (flip a CRC byte).
	path := filepath.Join(dir, "ckpt-0000000000000002.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Fatalf("restored height %d, want fallback to 1", h)
	}
}

func TestRestoreCorruptCheckpointLeaksNothing(t *testing.T) {
	// A corrupt newest checkpoint with far more records than Restore's
	// internal apply block must not leave any of its future-versioned
	// keys behind after the fallback — replay would misvalidate against
	// them.
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	fill(t, st, 1, 3000)
	if _, err := WriteCheckpoint(dir, 1, st); err != nil {
		t.Fatal(err)
	}
	fill(t, st, 2, 3000) // rewrite every key at block 2
	if _, err := WriteCheckpoint(dir, 2, st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-0000000000000002.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // bad CRC, intact records
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, _, err := Restore(dst, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h != 1 {
		t.Fatalf("restored height %d, want fallback to 1", h)
	}
	dst.Dump(func(key string, _ []byte, v txn.Version) bool {
		if v.BlockNum != 1 {
			t.Fatalf("key %s carries version %v leaked from the corrupt checkpoint", key, v)
		}
		return true
	})
}

func TestRestoreEmptyDirReplaysFromGenesis(t *testing.T) {
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	h, size, err := Restore(dst, t.TempDir(), 0)
	if err != nil || h != 0 || size != 0 {
		t.Fatalf("Restore on empty dir = %d, %d, %v; want 0, 0, nil", h, size, err)
	}
	// A missing dir behaves the same (the node never checkpointed).
	h, _, err = Restore(dst, filepath.Join(t.TempDir(), "never-created"), 0)
	if err != nil || h != 0 {
		t.Fatalf("Restore on missing dir = %d, %v; want 0, nil", h, err)
	}
}

func TestRestoreAllCorruptReturnsError(t *testing.T) {
	dir := t.TempDir()
	st := state.New(memdb.New(), 8)
	defer st.Close()
	fill(t, st, 1, 10)
	if _, err := WriteCheckpoint(dir, 1, st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ckpt-0000000000000001.ckpt")
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	dst := state.New(memdb.New(), 8)
	defer dst.Close()
	if _, _, err := Restore(dst, dir, 0); err == nil {
		t.Fatal("Restore of a lone corrupt checkpoint reported success")
	}
}

func TestCheckpointerIntervalAndPruning(t *testing.T) {
	st := state.New(memdb.New(), 8)
	defer st.Close()
	dir := t.TempDir()
	c, err := NewCheckpointer(st, Options{Dir: dir, Interval: 3, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	wrote := 0
	for h := uint64(1); h <= 10; h++ {
		fill(t, st, h, 5)
		did, err := c.MaybeCheckpoint(h)
		if err != nil {
			t.Fatal(err)
		}
		if did {
			wrote++
		}
	}
	// Interval 3 over heights 1..10 fires at 3, 6, 9.
	if wrote != 3 {
		t.Fatalf("wrote %d checkpoints, want 3", wrote)
	}
	if c.LastHeight() != 9 {
		t.Fatalf("last height %d, want 9", c.LastHeight())
	}
	files, err := listChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != (chainFile{height: 6}) || files[1] != (chainFile{height: 9}) {
		t.Fatalf("retained checkpoints %+v, want fulls at 6 and 9", files)
	}
	count, last, total := c.Totals()
	if count != 3 || last <= 0 || total < 3*last/2 {
		t.Fatalf("Totals = %d, %d, %d", count, last, total)
	}
}

func TestReplayDrivesBlocksAboveCheckpoint(t *testing.T) {
	// A fake source of 10 blocks, each one payload.
	blocks := make([][][]byte, 10)
	for i := range blocks {
		blocks[i] = [][]byte{[]byte(fmt.Sprintf("block-%d", i+1))}
	}
	src := fakeSource(blocks)
	var seen []uint64
	n, err := Replay(src, 4, func(n uint64, payloads [][]byte) error {
		if string(payloads[0]) != fmt.Sprintf("block-%d", n) {
			return fmt.Errorf("wrong payload for block %d", n)
		}
		seen = append(seen, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || len(seen) != 6 || seen[0] != 5 || seen[5] != 10 {
		t.Fatalf("replayed %d blocks (%v), want 5..10", n, seen)
	}
	// From == tip replays nothing.
	n, err = Replay(src, 10, func(uint64, [][]byte) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("Replay at tip = %d, %v", n, err)
	}
}

type fakeSource [][][]byte

func (s fakeSource) Height() uint64 { return uint64(len(s)) }
func (s fakeSource) Payloads(n uint64) ([][]byte, bool) {
	if n < 1 || n > uint64(len(s)) {
		return nil, false
	}
	return s[n-1], true
}

func TestDecodeTxs(t *testing.T) {
	payloads := [][]byte{[]byte("not a tx")}
	if _, err := DecodeTxs(payloads); err == nil {
		t.Fatal("garbage payload decoded")
	}
}
