package spanner

import (
	"encoding/binary"
	"runtime"
	"testing"

	"dichotomy/internal/txn"
)

// A write count is read off the wire — a raft entry or a restored
// checkpoint record — and sizes a slice; one the buffer cannot hold must be
// refused before it does. (The parent allocated ~40 MiB for this input.)
func TestReadWritesRefusesImplausibleCount(t *testing.T) {
	buf := binary.BigEndian.AppendUint32(nil, 1<<20)
	buf = append(buf, 0, 0, 0, 0, 0) // room for exactly one (empty-key, deleting) write
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writes, ok := decodeWrites(buf)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatalf("accepted a 9-byte buffer claiming 1<<20 writes (%d decoded)", len(writes))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Fatalf("allocated %d bytes refusing it, want < 1 KiB", got)
	}

	// The bound is exact: writes of the minimum size, filling the buffer to
	// the byte, are what the count says they are.
	smallest := []txn.Write{{Key: ""}, {Key: ""}, {Key: ""}}
	if got, ok := decodeWrites(encodeWrites(smallest)); !ok || len(got) != len(smallest) {
		t.Fatalf("refused %d minimum-size writes: %v, %v", len(smallest), got, ok)
	}
}
