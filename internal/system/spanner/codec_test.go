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
	// TotalAlloc counts the whole process: take the quietest of a few
	// attempts, so a runtime goroutine allocating beside one is not billed
	// to the decoder.
	quietest := ^uint64(0)
	for try := 0; try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writes, ok := decodeWrites(buf)
		runtime.ReadMemStats(&after)
		if ok {
			t.Fatalf("accepted a 9-byte buffer claiming 1<<20 writes (%d decoded)", len(writes))
		}
		quietest = min(quietest, after.TotalAlloc-before.TotalAlloc)
	}
	if quietest >= 1<<10 {
		t.Fatalf("allocated %d bytes refusing it, want < 1 KiB", quietest)
	}

	// The bound is exact: writes of the minimum size, filling the buffer to
	// the byte, are what the count says they are.
	smallest := []txn.Write{{Key: ""}, {Key: ""}, {Key: ""}}
	if got, ok := decodeWrites(encodeWrites(smallest)); !ok || len(got) != len(smallest) {
		t.Fatalf("refused %d minimum-size writes: %v, %v", len(smallest), got, ok)
	}
}

// A present-but-empty value is a value: decoding it as nil would turn the
// write into a delete (txn.Write's nil), which mpt.Put and the contract
// stub both take care not to do.
func TestWritesRoundTripKeepsEmptyValue(t *testing.T) {
	in := []txn.Write{{Key: "empty", Value: []byte{}}, {Key: "gone"}, {Key: "full", Value: []byte("v")}}
	out, ok := decodeWrites(encodeWrites(in))
	if !ok || len(out) != len(in) {
		t.Fatalf("round trip: %v, %v", out, ok)
	}
	if out[0].Value == nil || len(out[0].Value) != 0 {
		t.Fatalf("empty value decoded as %#v, want present and empty", out[0].Value)
	}
	if out[1].Value != nil {
		t.Fatalf("delete decoded as %#v, want nil", out[1].Value)
	}
	if string(out[2].Value) != "v" {
		t.Fatalf("value decoded as %q", out[2].Value)
	}
}
