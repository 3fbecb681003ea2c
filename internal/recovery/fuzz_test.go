package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDeltaDecode drives the checkpoint-file loader with arbitrary file
// contents of either kind. Crash recovery walks these files after an
// unclean shutdown, so the loader must turn any corruption — bad magic,
// lying counts, truncation, trailing bytes — into an error, never a
// panic or a huge allocation. The format is canonical (readFile rejects
// trailing bytes and unknown live flags, the encoder preserves record
// order), so anything the loader accepts must survive a byte-exact
// write/reload round trip.
func FuzzDeltaDecode(f *testing.F) {
	f.Add(goldenDelta)
	f.Add(goldenDelta[:len(goldenDelta)-2])
	f.Add([]byte("DCKDL1"))
	f.Add([]byte{})
	f.Add(goldenFull)
	f.Add(goldenFull[:len(goldenFull)-2])
	f.Add([]byte("DCKPT1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		hdr, entries, size, err := readFile(path)
		if err != nil {
			if entries != nil {
				t.Fatalf("rejected file leaked %d records", len(entries))
			}
			return
		}
		if size != int64(len(data)) {
			t.Fatalf("size %d of a %d-byte file", size, len(data))
		}
		w := newFileEncoder(hdr)
		for _, e := range entries {
			w.put(e)
		}
		if _, err := w.commit(dir); err != nil {
			t.Fatalf("rewrite of accepted file: %v", err)
		}
		rewritten, err := os.ReadFile(hdr.path(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten, data) {
			t.Fatal("accepted file did not round-trip byte-exactly")
		}
	})
}
