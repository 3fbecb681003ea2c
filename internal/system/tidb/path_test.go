package tidb

import (
	"encoding/binary"
	"testing"

	"dichotomy/internal/consensus"
	"dichotomy/internal/israce"
	"dichotomy/internal/mvcc"
	"dichotomy/internal/tso"
)

// The allocations tidb-mixed's transaction path makes in this package,
// site by site: a statement's text, parse and compile on the SQL server,
// the transaction's own bookkeeping, and a region command's decode and
// apply on every replica.

const benchKey = "kv/user000000001234"

// entry is cmd's log entry as a replica's Apply sees it: the body, behind
// the group's header.
func entry(cmd *regionCmd[string]) consensus.Entry {
	return consensus.Entry{Data: encodeRegionCmd(cmd)[consensus.Header:]}
}

func TestTransactionPathAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	value := []byte(benchValue)
	key := []byte("user000000001234")
	store := mvcc.NewStore()
	if r := applyRegionCmd(store, entry(&regionCmd[string]{kind: cmdRawPut, key: benchKey, value: value, startTS: 1, commitTS: 2})); !r.Committed {
		t.Fatalf("seeding the store: %+v", r)
	}
	prewrite := entry(&regionCmd[string]{kind: cmdPrewrite, key: benchKey, primary: "kv/user000000000007", value: value, startTS: 5})
	rollback := entry(&regionCmd[string]{kind: cmdRollback, key: benchKey, startTS: 5})
	commit := entry(&regionCmd[string]{kind: cmdCommit, key: benchKey, startTS: 5, commitTS: 6})
	c := &Cluster{pd: tso.New()}
	var cmd regionCmd[[]byte]
	var sql string
	var stmt Stmt
	var plan Plan
	for _, p := range []struct {
		name string
		want float64
		fn   func()
	}{
		// Key, primary and value all alias the entry.
		{"decode 1 KB prewrite", 0, func() { cmd, _ = decodeRegionCmd(prewrite.Data) }},
		{"decode commit", 0, func() { cmd, _ = decodeRegionCmd(commit.Data) }},
		// The lock is held by value in the key's entry, which is found by
		// the key's bytes.
		{"apply prewrite + rollback", 0, func() {
			if applyRegionCmd(store, prewrite).Err != nil || applyRegionCmd(store, rollback).Err != nil {
				t.Fatal("prewrite or rollback refused")
			}
		}},
		// The text: one buffer of the exact length, each literal copied once.
		{"build 1 KB UPDATE", 1, func() { sql = bind("UPDATE kv SET v = ? WHERE k = ?", value, key) }},
		{"build SELECT", 1, func() { sql = bind("SELECT v FROM kv WHERE k = ?", key) }},
		// Tokens in a stack array, literals sliced out of the text, keywords
		// and known table names lexed to constants.
		{"Parse 1 KB UPDATE", 0, func() { stmt, _ = Parse(benchUpdate) }},
		{"Parse SELECT", 0, func() { stmt, _ = Parse(benchSelect) }},
		// The storage key: the table's constant prefix and the key.
		{"Compile", 1, func() { plan, _ = Compile(stmt) }},
		// The transaction, with its reads and writes inside it.
		{"NewTxn, 4 writes, a read of one", 1, func() {
			tx := c.NewTxn()
			for _, k := range [...]string{"kv/a", "kv/b", "kv/c", "kv/d"} {
				tx.Write(k, value)
			}
			if v, err := tx.Get("kv/c"); err != nil || len(v) != len(value) {
				t.Fatalf("read-your-writes: %d bytes, %v", len(v), err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, p.fn); got != p.want {
			t.Errorf("%s: %v allocs, want %v", p.name, got, p.want)
		}
	}
	if string(cmd.key) != benchKey || sql != benchSelect || plan.StorageKey != "kv/user000000001234" {
		t.Fatalf("pinned calls produced %+v, %q, %+v", cmd, sql, plan)
	}
}

// A 4-write commit on one-replica regions, where no message crosses the
// network: the transaction and eight entry encodes (four prewrites, four
// commits). The region calls each phase fans out to live in the
// transaction, and no goroutine is started.
func TestCommitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	c := clusterUp(t, Config{StorageNodes: 1, Regions: 2})
	value := []byte("v")
	commit := func() {
		tx := c.NewTxn()
		for _, k := range [...]string{"kv/a", "kv/b", "kv/c", "kv/d"} {
			tx.Write(k, value)
		}
		if err := tx.Commit(nil); err != nil {
			t.Fatal(err)
		}
	}
	commit() // every key enters its store once
	if got := testing.AllocsPerRun(200, commit); got > 1+8 {
		t.Errorf("4-write Commit: %v allocs, want at most 9", got)
	}
}

// BenchmarkRegionApply is one 1 KB write's trip through a region replica:
// its prewrite and its commit decoded and applied into an MVCC store. The
// version each commit installs grows the key's chain, amortised to no
// allocation per write.
func BenchmarkRegionApply(b *testing.B) {
	b.Run("shape=prewrite+commit", func(b *testing.B) {
		store := mvcc.NewStore()
		prewrite := entry(&regionCmd[string]{kind: cmdPrewrite, key: benchKey, primary: benchKey, value: []byte(benchValue)})
		commit := entry(&regionCmd[string]{kind: cmdCommit, key: benchKey})
		b.ReportAllocs()
		for ts := uint64(1); b.Loop(); ts += 2 {
			binary.BigEndian.PutUint64(prewrite.Data[2:], ts) // startTS
			binary.BigEndian.PutUint64(commit.Data[2:], ts)
			binary.BigEndian.PutUint64(commit.Data[10:], ts+1) // commitTS
			if applyRegionCmd(store, prewrite).Err != nil || applyRegionCmd(store, commit).Err != nil {
				b.Fatal("write refused")
			}
		}
	})
}

// BenchmarkSQLStatement is one statement of tidb-mixed's SQL front end:
// its text built from the request's arguments, parsed and compiled.
func BenchmarkSQLStatement(b *testing.B) {
	value, key := []byte(benchValue), []byte("user000000001234")
	for _, q := range []struct {
		name  string
		build func() string
	}{
		{"update-1KB", func() string { return bind("UPDATE kv SET v = ? WHERE k = ?", value, key) }},
		{"select", func() string { return bind("SELECT v FROM kv WHERE k = ?", key) }},
	} {
		b.Run("stmt="+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				stmt, err := Parse(q.build())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Compile(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTxnCommit is one transaction's Percolator commit on an
// in-memory cluster of one-replica regions, where no message crosses the
// network: the prewrites, the primary's commit and the secondaries', each
// write in a region of its own. allocs/op is the transaction and its
// command encodes (TestCommitAllocs).
func BenchmarkTxnCommit(b *testing.B) {
	b.Run("writes=4", func(b *testing.B) {
		c := clusterUp(b, Config{StorageNodes: 1, Regions: 4})
		keys := keysInRegions(c, 4)
		value := []byte("v")
		b.ReportAllocs()
		for b.Loop() {
			tx := c.NewTxn()
			for _, k := range keys {
				tx.Write(k, value)
			}
			if err := tx.Commit(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
