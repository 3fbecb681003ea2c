package recovery

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"dichotomy/internal/israce"
	"dichotomy/internal/txn"
)

// newTestChain is a delta-mode chain over a fresh directory, seeded with a
// full of n keys written from its content.
func newTestChain(t *testing.T, n int) *chain {
	t.Helper()
	c := &chain{opts: Options{Dir: t.TempDir(), Interval: 1, Mode: ModeDelta}.withDefaults()}
	s := step{kind: stepFull, height: 1}
	c.take(s, storeEntries(n))
	if _, err := c.write(s, stateRecords(c.content)); err != nil {
		t.Fatal(err)
	}
	c.advance(s)
	return c
}

// A fold is written from memory into the reused buffer, so what it
// allocates is the sorted-key slice and the file handles: the same count
// over a 200-key chain as over a 2 000-key one.
func TestFoldWriteAllocsIndependentOfSize(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	foldAllocs := func(keys int) float64 {
		c := newTestChain(t, keys)
		return testing.AllocsPerRun(10, func() {
			s := step{kind: stepFold, height: c.tip + 1, base: c.tip}
			if _, err := c.write(s, stateRecords(c.content)); err != nil {
				t.Fatal(err)
			}
			c.advance(s)
		})
	}
	if small, large := foldAllocs(200), foldAllocs(2000); small != large {
		t.Fatalf("a fold allocates %v times over 200 keys, %v over 2 000", small, large)
	}
}

// Once the buffer holds the chain's largest file, a delta is encoded in
// that same memory.
func TestDeltaWriteReusesBuffer(t *testing.T) {
	c := newTestChain(t, 2000)
	buf := c.enc.buf[:1]
	set := storeEntries(100)
	for i := 0; i < 5; i++ {
		s := step{kind: stepDelta, height: c.tip + 1, base: c.tip}
		c.take(s, set)
		if _, err := c.write(s, changedRecords(set)); err != nil {
			t.Fatal(err)
		}
		c.advance(s)
		if &c.enc.buf[0] != &buf[0] || cap(c.enc.buf) != cap(buf) {
			t.Fatalf("delta %d moved the buffer: cap %d, was %d", i, cap(c.enc.buf), cap(buf))
		}
	}
}

// A short file encoded in a buffer a long one used is byte for byte the
// file a fresh encoder writes: no stale record, and the count patched at
// countOff is the short file's.
func TestReusedBufferLeaksNoStaleBytes(t *testing.T) {
	c := newTestChain(t, 2000)
	delta := []entry{
		{key: "key-00001", value: []byte("new"), ver: txn.Version{BlockNum: 2}, live: true},
		{key: "key-00002", live: false},
		{key: "key-99999", value: []byte{}, ver: txn.Version{BlockNum: 2, TxNum: 1}, live: true},
	}
	s := step{kind: stepDelta, height: 2, base: 1}
	if _, err := c.write(s, changedRecords(delta)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(deltaPath(c.opts.Dir, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	fresh := newFileEncoder(chainFile{height: 2, base: 1, delta: true})
	for _, e := range delta {
		fresh.put(e)
	}
	dir := t.TempDir()
	if _, err := fresh.commit(dir); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(deltaPath(dir, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint64(got[c.enc.countOff:]); n != uint64(len(delta)) {
		t.Fatalf("count %d at countOff, want %d", n, len(delta))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delta through the reused buffer is %d bytes, a fresh encoder's %d, and they differ", len(got), len(want))
	}
}
