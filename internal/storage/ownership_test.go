package storage_test

import (
	"bytes"
	"fmt"
	"testing"

	"dichotomy/internal/ads/mpt"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/bptree"
	"dichotomy/internal/storage/lsm"
	"dichotomy/internal/storage/memdb"
)

// kv is the slice of an engine or trie the ownership table drives.
type kv struct {
	put func(key, value []byte) error
	get func(key []byte) ([]byte, bool)
}

func engineKV(t *testing.T, e storage.Engine, batch bool) kv {
	t.Cleanup(func() { e.Close() })
	put := e.Put
	if batch {
		put = func(key, value []byte) error {
			return e.(storage.Batch).ApplyBatch([]storage.Write{{Key: key, Value: value}})
		}
	}
	return kv{put: put, get: func(key []byte) ([]byte, bool) {
		v, err := e.Get(key)
		return v, err == nil
	}}
}

// TestKeysAreCopiedValuesKept is the table behind KeyView: every engine and
// the trie copy each key they keep, so overwriting the caller's key slice
// after Put or ApplyBatch loses nothing, on insert and on update alike.
// Values are handed over and read back unchanged.
func TestKeysAreCopiedValuesKept(t *testing.T) {
	cases := []struct {
		name string
		open func(t *testing.T) kv
	}{
		{"memdb/put", func(t *testing.T) kv { return engineKV(t, memdb.New(), false) }},
		{"memdb/batch", func(t *testing.T) kv { return engineKV(t, memdb.New(), true) }},
		{"bptree/put", func(t *testing.T) kv { return engineKV(t, bptree.New(), false) }},
		{"bptree/batch", func(t *testing.T) kv { return engineKV(t, bptree.New(), true) }},
		{"lsm/put", func(t *testing.T) kv {
			db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), MemtableBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			return engineKV(t, db, false)
		}},
		{"lsm/batch", func(t *testing.T) kv {
			db, err := lsm.Open(lsm.Options{Dir: t.TempDir(), MemtableBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
			return engineKV(t, db, true)
		}},
		{"mpt", func(t *testing.T) kv {
			tr := mpt.New()
			return kv{
				put: func(key, value []byte) error { tr.Put(key, value); return nil },
				get: tr.Get,
			}
		}},
	}
	const n = 64 // past lsm's 512-byte memtable, so some keys live in tables
	name := func(i int) string { return fmt.Sprintf("acct%04d", i) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.open(t)
			buf := make([]byte, len(name(0)))
			for round := range 2 { // insert, then update
				for i := range n {
					copy(buf, name(i))
					if err := s.put(buf, fmt.Appendf(nil, "v%d-%d", round, i)); err != nil {
						t.Fatal(err)
					}
					clear(buf) // the caller reuses its key buffer
				}
				for i := range n {
					want := fmt.Appendf(nil, "v%d-%d", round, i)
					if got, ok := s.get([]byte(name(i))); !ok || !bytes.Equal(got, want) {
						t.Fatalf("round %d: get %s = %q, %v; want %q", round, name(i), got, ok, want)
					}
				}
			}
			if _, ok := s.get(buf); ok {
				t.Fatal("an entry is found under the overwritten key bytes")
			}
		})
	}
}

func TestKeyView(t *testing.T) {
	if v := storage.KeyView(""); len(v) != 0 {
		t.Fatalf("KeyView(\"\") = %q", v)
	}
	s := "acct0001"
	if v := storage.KeyView(s); string(v) != s || cap(v) != len(s) {
		t.Fatalf("KeyView(%q) = %q (cap %d)", s, v, cap(v))
	}
}
