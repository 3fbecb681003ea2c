package recovery

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"

	"dichotomy/internal/txn"
)

// The bytes PR 18's two writers (writeFullFile, writeDelta) produced for
// the records below — a tombstone, an empty key and an empty value among
// them. The one codec that replaced them must read and write the same
// files: checkpoint directories outlive the binary that wrote them.
var (
	goldenFull = unhex("44434b505431" + "0000000000000007" + "0000000000000003" +
		"00000000" + "00000000" + "0000000000000000" + "00000000" +
		"00000005" + "616c706861" + "00000001" + "31" + "0000000000000003" + "00000001" +
		"00000004" + "62657461" + "00000003" + "74776f" + "0000000000000007" + "00000002" +
		"34eeb48b")
	goldenDelta = unhex("44434b444c31" + "0000000000000009" + "0000000000000007" + "0000000000000003" +
		"00000000" + "01" + "00000000" + "0000000000000008" + "00000000" +
		"00000005" + "616c706861" + "01" + "00000003" + "756e6f" + "0000000000000009" + "00000004" +
		"00000004" + "62657461" + "00" +
		"b8d66f8c")

	goldenFullFile    = chainFile{height: 7}
	goldenFullEntries = []entry{
		{key: "", value: []byte{}, live: true},
		{key: "alpha", value: []byte("1"), ver: txn.Version{BlockNum: 3, TxNum: 1}, live: true},
		{key: "beta", value: []byte("two"), ver: txn.Version{BlockNum: 7, TxNum: 2}, live: true},
	}
	goldenDeltaFile    = chainFile{height: 9, base: 7, delta: true}
	goldenDeltaEntries = []entry{
		{key: "", value: []byte{}, ver: txn.Version{BlockNum: 8}, live: true},
		{key: "alpha", value: []byte("uno"), ver: txn.Version{BlockNum: 9, TxNum: 4}, live: true},
		{key: "beta"},
	}
)

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestGoldenFilesReadAndWriteUnchanged(t *testing.T) {
	for _, g := range []struct {
		name    string
		file    chainFile
		bytes   []byte
		entries []entry
	}{
		{"full", goldenFullFile, goldenFull, goldenFullEntries},
		{"delta", goldenDeltaFile, goldenDelta, goldenDeltaEntries},
	} {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(g.file.path(dir), g.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			hdr, entries, size, err := readFile(g.file.path(dir))
			if err != nil {
				t.Fatalf("loader rejects the parent's file: %v", err)
			}
			if hdr != g.file || size != int64(len(g.bytes)) || len(entries) != len(g.entries) {
				t.Fatalf("read header %+v, %d bytes, %d records; want %+v, %d, %d",
					hdr, size, len(entries), g.file, len(g.bytes), len(g.entries))
			}
			for i, want := range g.entries {
				got := entries[i]
				if got.key != want.key || got.live != want.live || got.ver != want.ver || !bytes.Equal(got.value, want.value) {
					t.Fatalf("record %d = %+v, want %+v", i, got, want)
				}
			}

			// The writers' own path: a chain step, fed the way each kind is
			// fed — a delta its changed entries, a full a state map.
			out := t.TempDir()
			c := chain{opts: Options{Dir: out, Keep: 2}}
			s, records := step{kind: stepDelta, height: g.file.height, base: g.file.base}, changedRecords(g.entries)
			if !g.file.delta {
				m := make(map[string]chainEntry)
				overlay(m, g.entries)
				s, records = step{kind: stepFull, height: g.file.height}, stateRecords(m)
			}
			n, err := c.write(s, records)
			if err != nil {
				t.Fatal(err)
			}
			written, err := os.ReadFile(g.file.path(out))
			if err != nil {
				t.Fatalf("writer chose another file name: %v", err)
			}
			if !bytes.Equal(written, g.bytes) || n != int64(len(g.bytes)) {
				t.Fatalf("writer produced (%d bytes reported)\n%x\nwant the parent's\n%x", n, written, g.bytes)
			}
		})
	}
}

func TestGoldenChainRestores(t *testing.T) {
	// The two files form a chain: full@7, delta@9 on top of it.
	dir := t.TempDir()
	for file, data := range map[chainFile][]byte{goldenFullFile: goldenFull, goldenDeltaFile: goldenDelta} {
		if err := os.WriteFile(file.path(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, tip, size, err := loadChain(dir, 0)
	if err != nil || tip != 9 || size != int64(len(goldenFull)+len(goldenDelta)) {
		t.Fatalf("loadChain = tip %d, %d bytes, %v", tip, size, err)
	}
	want := map[string]chainEntry{
		"":      {value: []byte{}, ver: txn.Version{BlockNum: 8}},
		"alpha": {value: []byte("uno"), ver: txn.Version{BlockNum: 9, TxNum: 4}},
	}
	if len(m) != len(want) {
		t.Fatalf("chain holds %d keys, want %d", len(m), len(want))
	}
	for k, w := range want {
		if g, ok := m[k]; !ok || g.ver != w.ver || !bytes.Equal(g.value, w.value) {
			t.Fatalf("key %q = %+v (present %v), want %+v", k, g, ok, w)
		}
	}
}
