package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dichotomy/internal/israce"
	"dichotomy/internal/storage"
)

func key(i int) []byte   { return []byte(fmt.Sprintf("key-%06d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("value-%06d", i)) }

// MustOpenMemory returns an in-memory DB for tests and benchmarks.
func MustOpenMemory() *DB {
	db, err := Open(Options{})
	if err != nil {
		panic(err)
	}
	return db
}

func TestPutGet(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := db.Get(key(i))
		if err != nil {
			t.Fatalf("Get(%s): %v", key(i), err)
		}
		if !bytes.Equal(got, value(i)) {
			t.Fatalf("Get(%s) = %q, want %q", key(i), got, value(i))
		}
	}
}

func TestGetMissing(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	if _, err := db.Get([]byte("absent")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestOverwrite(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	db.Put([]byte("k"), []byte("v1"))
	db.Put([]byte("k"), []byte("v2"))
	got, err := db.Get([]byte("k"))
	if err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("Get = %q, %v; want v2", got, err)
	}
}

func TestDelete(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	db.Delete([]byte("k"))
	if _, err := db.Get([]byte("k")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("deleted key still visible: %v", err)
	}
	// Deleting an absent key is fine.
	if err := db.Delete([]byte("never")); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Delete([]byte("k"))
	if _, err := db.Get([]byte("k")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("tombstone did not shadow flushed value")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("tombstone lost after flush")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("key resurrected by compaction")
	}
}

func TestFlushAndReadBack(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	for i := 0; i < 200; i++ {
		db.Put(key(i), value(i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("after flush Get(%s) = %q, %v", key(i), got, err)
		}
	}
}

func TestCompactionTriggersAndPreservesData(t *testing.T) {
	db, err := Open(Options{MemtableBytes: 1024, L0Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := db.Put(key(i), value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := db.Get(key(i))
		if err != nil || !bytes.Equal(got, value(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), got, err)
		}
	}
	db.mu.RLock()
	l0 := len(db.l0)
	db.mu.RUnlock()
	if l0 >= 2+1 {
		t.Fatalf("L0 has %d tables; compaction never ran", l0)
	}
}

func TestNewerVersionWinsAcrossLevels(t *testing.T) {
	db, err := Open(Options{MemtableBytes: 1 << 20, L0Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Put([]byte("k"), []byte("old"))
	db.Flush()
	db.Put([]byte("k"), []byte("mid"))
	db.Flush()
	db.Put([]byte("k"), []byte("new"))
	got, _ := db.Get([]byte("k"))
	if !bytes.Equal(got, []byte("new")) {
		t.Fatalf("Get = %q, want new", got)
	}
	db.Compact()
	got, _ = db.Get([]byte("k"))
	if !bytes.Equal(got, []byte("new")) {
		t.Fatalf("after compact Get = %q, want new", got)
	}
}

func TestIteratorSortedAndComplete(t *testing.T) {
	db, err := Open(Options{MemtableBytes: 2048, L0Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	perm := rand.New(rand.NewSource(1)).Perm(500)
	for _, i := range perm {
		db.Put(key(i), value(i))
	}
	it := db.NewIterator(nil)
	defer it.Close()
	var prev []byte
	n := 0
	for it.Next() {
		if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
			t.Fatalf("iterator out of order: %q after %q", it.Key(), prev)
		}
		prev = append(prev[:0], it.Key()...)
		n++
	}
	if n != 500 {
		t.Fatalf("iterator yielded %d keys, want 500", n)
	}
}

func TestIteratorStart(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put(key(i), value(i))
	}
	db.Flush()
	it := db.NewIterator(key(90))
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	if n != 10 {
		t.Fatalf("iterator from key-90 yielded %d keys, want 10", n)
	}
}

func TestIteratorHidesTombstones(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	for i := 0; i < 10; i++ {
		db.Put(key(i), value(i))
	}
	db.Flush()
	for i := 0; i < 10; i += 2 {
		db.Delete(key(i))
	}
	it := db.NewIterator(nil)
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	if n != 5 {
		t.Fatalf("iterator yielded %d keys, want 5", n)
	}
}

func TestApplyBatch(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	db.Put([]byte("gone"), []byte("x"))
	writes := []storage.Write{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("gone"), Value: nil},
	}
	if err := storage.ApplyWrites(db, writes); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get([]byte("a")); !bytes.Equal(v, []byte("1")) {
		t.Fatal("batch write a lost")
	}
	if _, err := db.Get([]byte("gone")); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("batch delete ignored")
	}
}

// TestDirModeKeepsItsDiskWrites pins what a disk-backed DB does with its
// directory: it writes the WAL and its tables as a database would, and
// never reads them back.
func TestDirModeKeepsItsDiskWrites(t *testing.T) {
	dir := t.TempDir()
	size := func(name string) int64 {
		t.Helper()
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	tables := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "sst-*.sst"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// A value larger than the WAL's buffer goes straight to the file.
	big := bytes.Repeat([]byte("v"), 8<<10)
	if err := db.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if n := size("wal.log"); n <= int64(len(big)) {
		t.Fatalf("wal.log holds %d bytes after an %d-byte Put", n, len(big))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tables(); len(got) != 1 {
		t.Fatalf("Flush wrote tables %v, want one", got)
	}
	if n := size("wal.log"); n != 0 {
		t.Fatalf("wal.log holds %d bytes after Flush, want it truncated", n)
	}
	if err := db.Put([]byte("after"), big); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Len(); n != 0 {
		t.Fatalf("a DB opened over an earlier one's directory holds %d keys", n)
	}
	for _, k := range []string{"big", "after"} {
		if v, err := db2.Get([]byte(k)); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("Get(%s) after reopen = %d bytes, %v; want not found", k, len(v), err)
		}
	}
	if n := size("wal.log"); n != 0 {
		t.Fatalf("Open left the stale wal.log at %d bytes", n)
	}
}

func TestClosedOperations(t *testing.T) {
	db := MustOpenMemory()
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Put on closed = %v", err)
	}
	if _, err := db.Get([]byte("k")); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Get on closed = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestApproxSizeGrows(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	before := db.ApproxSize()
	for i := 0; i < 100; i++ {
		db.Put(key(i), make([]byte, 100))
	}
	if db.ApproxSize() <= before {
		t.Fatal("ApproxSize did not grow")
	}
}

func TestLenCountsLiveKeys(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	for i := 0; i < 20; i++ {
		db.Put(key(i), value(i))
	}
	db.Flush()
	db.Delete(key(0))
	if got := db.Len(); got != 19 {
		t.Fatalf("Len = %d, want 19", got)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	db := MustOpenMemory()
	defer db.Close()
	db.Put([]byte("empty"), []byte{})
	got, err := db.Get([]byte("empty"))
	if err != nil {
		t.Fatalf("empty value not found: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %q, want empty", got)
	}
	db.Flush()
	if _, err := db.Get([]byte("empty")); err != nil {
		t.Fatalf("empty value lost after flush: %v", err)
	}
}

// TestModelEquivalence drives random operations against the LSM engine and
// a plain map, comparing results — the core property of any KV engine.
func TestModelEquivalence(t *testing.T) {
	db, err := Open(Options{MemtableBytes: 512, L0Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 5000; step++ {
		k := fmt.Sprintf("k%03d", rng.Intn(200))
		switch rng.Intn(4) {
		case 0, 1: // put
			v := fmt.Sprintf("v%d", step)
			model[k] = v
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		case 2: // delete
			delete(model, k)
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		case 3: // get
			got, err := db.Get([]byte(k))
			want, ok := model[k]
			if ok {
				if err != nil || string(got) != want {
					t.Fatalf("step %d: Get(%s) = %q,%v want %q", step, k, got, err, want)
				}
			} else if !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("step %d: Get(%s) = %q,%v want not-found", step, k, got, err)
			}
		}
	}
	// Final sweep: everything must match, including via iterator.
	if got := db.Len(); got != len(model) {
		t.Fatalf("Len = %d, model has %d", got, len(model))
	}
	it := db.NewIterator(nil)
	defer it.Close()
	seen := 0
	for it.Next() {
		want, ok := model[string(it.Key())]
		if !ok || want != string(it.Value()) {
			t.Fatalf("iterator saw %q=%q; model %q,%v", it.Key(), it.Value(), want, ok)
		}
		seen++
	}
	if seen != len(model) {
		t.Fatalf("iterator yielded %d, model has %d", seen, len(model))
	}
}

func TestSSTableRejectsCorruption(t *testing.T) {
	raw := buildSSTable([]entry{{key: []byte("a"), value: []byte("1")}})
	if _, err := openSSTable(raw); err != nil {
		t.Fatalf("clean table rejected: %v", err)
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := openSSTable(bad); err == nil {
		t.Fatal("corrupt body accepted")
	}
	short := raw[:16]
	if _, err := openSSTable(short); err == nil {
		t.Fatal("truncated table accepted")
	}
}

func TestBloomFilterProperties(t *testing.T) {
	bf := newBloomFilter(1000)
	for i := 0; i < 1000; i++ {
		bf.add(key(i))
	}
	for i := 0; i < 1000; i++ {
		if !bf.mayContain(key(i)) {
			t.Fatalf("false negative for %s", key(i))
		}
	}
	fp := 0
	for i := 1000; i < 2000; i++ {
		if bf.mayContain(key(i)) {
			fp++
		}
	}
	if fp > 100 { // 10%; expected ~1%
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

func TestBloomRoundTrip(t *testing.T) {
	f := func(keys [][]byte) bool {
		bf := newBloomFilter(len(keys))
		for _, k := range keys {
			bf.add(k)
		}
		back := unmarshalBloom(bf.marshal())
		for _, k := range keys {
			if !back.mayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecordFormat reads the log back and checks every record against
// the format wal.go documents — len u32 | crc u32 | flags u8 | klen u32 |
// key | value, the CRC over everything after it — and that appending a
// record allocates nothing: the buffered writer's copy is the only one.
func TestWALRecordFormat(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		key, value string
		tomb       bool
	}
	want := []rec{{"a", "1", false}, {"bb", "", false}, {"a", "", true}, {"key", strings.Repeat("v", 5000), false}}
	for _, r := range want {
		if r.tomb {
			err = db.Delete([]byte(r.key))
		} else {
			err = db.ApplyBatch([]storage.Write{{Key: []byte(r.key), Value: []byte(r.value)}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !israce.Enabled {
		k, v := []byte("key"), []byte("value")
		if n := testing.AllocsPerRun(100, func() { _ = db.wal.append(k, v, false) }); n != 0 {
			t.Fatalf("wal append: %.1f allocs per record, want 0", n)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var got []rec
	for len(b) > 0 {
		if len(b) < 8 {
			t.Fatalf("torn record header: %d bytes", len(b))
		}
		n := binary.BigEndian.Uint32(b[0:4])
		payload := b[8 : 8+n]
		if crc := crc32.ChecksumIEEE(payload); crc != binary.BigEndian.Uint32(b[4:8]) {
			t.Fatalf("record %d: crc %08x, header says %08x", len(got), crc, binary.BigEndian.Uint32(b[4:8]))
		}
		klen := binary.BigEndian.Uint32(payload[1:5])
		got = append(got, rec{
			key:   string(payload[5 : 5+klen]),
			value: string(payload[5+klen:]),
			tomb:  payload[0] == flagTomb,
		})
		b = b[8+n:]
	}
	if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
		t.Fatalf("wal records %v, want %v first", got, want)
	}
	for _, r := range got[len(want):] {
		if r != (rec{"key", "value", false}) {
			t.Fatalf("unexpected record %v", r)
		}
	}
}
