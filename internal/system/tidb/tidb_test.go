package tidb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/metrics"
	"dichotomy/internal/occ"
	"dichotomy/internal/txn"
)

func clusterUp(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func small(t *testing.T) *Cluster {
	return clusterUp(t, Config{Servers: 2, StorageNodes: 3, Regions: 4})
}

func TestParse(t *testing.T) {
	cases := map[string]Stmt{
		"SELECT v FROM kv WHERE k = 'alpha'":    {Kind: StmtSelect, Table: "KV", Key: "alpha"},
		"INSERT INTO kv VALUES ('a', 'b')":      {Kind: StmtInsert, Table: "KV", Key: "a", Value: "b"},
		"UPDATE kv SET v = 'nv' WHERE k = 'a';": {Kind: StmtUpdate, Table: "KV", Key: "a", Value: "nv"},
		"DELETE FROM kv WHERE k = 'gone'":       {Kind: StmtDelete, Table: "KV", Key: "gone"},
		"select * from chk where k = 'x'":       {Kind: StmtSelect, Table: "CHK", Key: "x"},
		"SELECT v FROM kv WHERE k = 'it''s'":    {Kind: StmtSelect, Table: "KV", Key: "it's"},
	}
	for sql, want := range cases {
		got, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %+v, want %+v", sql, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"DROP TABLE kv",
		"SELECT v FROM kv",
		"SELECT v FROM kv WHERE k = unquoted",
		"INSERT INTO kv VALUES ('only-key')",
		"SELECT v FROM kv WHERE k = 'a' garbage",
		"SELECT v FROM kv WHERE k = 'unterminated",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted", sql)
		}
	}
}

func TestCompile(t *testing.T) {
	plan, err := Compile(Stmt{Kind: StmtSelect, Table: "KV", Key: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.StorageKey != "kv/alpha" {
		t.Fatalf("StorageKey = %q", plan.StorageKey)
	}
	if _, err := Compile(Stmt{Kind: StmtSelect}); err == nil {
		t.Fatal("empty statement compiled")
	}
}

func TestQuote(t *testing.T) {
	if Quote("it's") != "'it''s'" {
		t.Fatalf("Quote = %q", Quote("it's"))
	}
}

func TestExecRoundTrip(t *testing.T) {
	c := small(t)
	s := c.NewSession()
	tr := metrics.NewTrace()
	if _, err := s.Exec("INSERT INTO kv VALUES ('alpha', 'one')", tr); err != nil {
		t.Fatal(err)
	}
	v, err := s.Exec("SELECT v FROM kv WHERE k = 'alpha'", tr)
	if err != nil || !bytes.Equal(v, []byte("one")) {
		t.Fatalf("SELECT = %q, %v", v, err)
	}
	if _, err := s.Exec("UPDATE kv SET v = 'two' WHERE k = 'alpha'", tr); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Exec("SELECT v FROM kv WHERE k = 'alpha'", tr)
	if !bytes.Equal(v, []byte("two")) {
		t.Fatalf("after update: %q", v)
	}
	if _, err := s.Exec("DELETE FROM kv WHERE k = 'alpha'", tr); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Exec("SELECT v FROM kv WHERE k = 'alpha'", tr)
	if v != nil {
		t.Fatalf("after delete: %q", v)
	}
	// Parse/compile phases did work.
	d := tr.Durations()
	if d[metrics.PhaseSQLParse] == 0 || d[metrics.PhaseSQLPlan] == 0 {
		t.Fatal("SQL phases unrecorded")
	}
}

func TestSnapshotIsolationAcrossTxns(t *testing.T) {
	c := small(t)
	tr := metrics.NewTrace()
	w := c.NewTxn()
	w.Write("kv/a", []byte("v1"))
	if err := w.Commit(tr); err != nil {
		t.Fatal(err)
	}
	reader := c.NewTxn() // snapshot before second write
	w2 := c.NewTxn()
	w2.Write("kv/a", []byte("v2"))
	if err := w2.Commit(tr); err != nil {
		t.Fatal(err)
	}
	v, err := reader.Get("kv/a")
	if err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("snapshot read = %q, %v; want v1", v, err)
	}
}

func TestWriteWriteConflictAborts(t *testing.T) {
	c := small(t)
	tr := metrics.NewTrace()
	t1 := c.NewTxn()
	t2 := c.NewTxn()
	t1.Write("kv/hot", []byte("a"))
	t2.Write("kv/hot", []byte("b"))
	if err := t1.Commit(tr); err != nil {
		t.Fatal(err)
	}
	err := t2.Commit(tr)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want conflict", err)
	}
	if c.WWConf.Load() == 0 {
		t.Fatal("conflict counter untouched")
	}
}

func TestMultiKeyTransactionAtomic(t *testing.T) {
	c := small(t)
	tr := metrics.NewTrace()
	tx := c.NewTxn()
	for i := 0; i < 6; i++ {
		tx.Write(fmt.Sprintf("kv/k%d", i), []byte("v"))
	}
	if err := tx.Commit(tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v, err := c.RawGet(fmt.Sprintf("kv/k%d", i))
		if err != nil || v == nil {
			t.Fatalf("k%d missing after commit: %v", i, err)
		}
	}
}

// A prewrite conflict on one key rolls back the locks the others took, in
// one round: none is left, and a later transaction over the other keys
// commits.
func TestFailedPrewriteRollsBackEverything(t *testing.T) {
	c := small(t)
	tr := metrics.NewTrace()
	// Hold a lock on one key with an uncommitted transaction.
	blocker := c.NewTxn()
	blocker.Write("kv/locked", []byte("x"))
	// Manually prewrite without committing to keep the lock held.
	if err := c.propose(&regionCmd[string]{kind: cmdPrewrite, key: "kv/locked",
		value: []byte("x"), startTS: blocker.startTS, primary: "kv/locked"}); err != nil {
		t.Fatal(err)
	}
	free := []string{"kv/a", "kv/b", "kv/free"}
	victim := c.NewTxn()
	for _, k := range append(free, "kv/locked") {
		victim.Write(k, []byte("y"))
	}
	if err := victim.Commit(tr); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit through a foreign lock: %v, want %v", err, ErrConflict)
	}
	// The free keys must not be left locked.
	for _, k := range free {
		store, err := c.regionOf(k).Freshest()
		if err != nil {
			t.Fatal(err)
		}
		if store.Locked(k) {
			t.Fatalf("rollback leaked the lock on %s", k)
		}
	}
	later := c.NewTxn()
	for _, k := range free {
		later.Write(k, []byte("z"))
	}
	if err := later.Commit(tr); err != nil {
		t.Fatalf("a later transaction over the free keys: %v", err)
	}
	for _, k := range free {
		if v, err := c.RawGet(k); err != nil || string(v) != "z" {
			t.Fatalf("%s reads %q, %v; want z", k, v, err)
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	c := small(t)
	tx := c.NewTxn()
	tx.Write("kv/k", []byte("mine"))
	v, err := tx.Get("kv/k")
	if err != nil || !bytes.Equal(v, []byte("mine")) {
		t.Fatalf("read-your-writes = %q, %v", v, err)
	}
}

func TestExecuteKVAdapter(t *testing.T) {
	c := small(t)
	client := cryptoutil.MustNewSigner("client")
	put, _ := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: "put",
		Args: [][]byte{[]byte("k"), []byte("v")}})
	if r := c.Execute(put); !r.Committed {
		t.Fatalf("put: %+v", r)
	}
	get, _ := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: "get",
		Args: [][]byte{[]byte("k")}})
	r := c.Execute(get)
	if !r.Committed || !bytes.Equal(r.Value, []byte("v")) {
		t.Fatalf("get: %+v", r)
	}
}

func TestExecuteSmallbankAdapter(t *testing.T) {
	c := small(t)
	client := cryptoutil.MustNewSigner("client")
	sign := func(method string, args ...[]byte) *txn.Tx {
		tx, err := txn.Sign(client, txn.Invocation{Contract: contract.SmallbankName, Method: method, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}
	if r := c.Execute(sign("create_account", []byte("a1"), contract.EncodeInt64(100), contract.EncodeInt64(50))); !r.Committed {
		t.Fatalf("create: %+v", r)
	}
	if r := c.Execute(sign("create_account", []byte("a2"), contract.EncodeInt64(10), contract.EncodeInt64(0))); !r.Committed {
		t.Fatalf("create: %+v", r)
	}
	if r := c.Execute(sign("send_payment", []byte("a1"), []byte("a2"), contract.EncodeInt64(30))); !r.Committed {
		t.Fatalf("payment: %+v", r)
	}
	v, _ := c.RawGet("chk/a1")
	if contract.DecodeInt64(v) != 70 {
		t.Fatalf("src balance = %d, want 70", contract.DecodeInt64(v))
	}
	// Insufficient funds is a business abort, not a conflict.
	r := c.Execute(sign("send_payment", []byte("a1"), []byte("a2"), contract.EncodeInt64(10000)))
	if r.Committed || !errors.Is(r.Err, contract.ErrAbort) {
		t.Fatalf("overdraft: %+v", r)
	}
}

func TestHotKeyContention(t *testing.T) {
	c := small(t)
	client := cryptoutil.MustNewSigner("client")
	seed, _ := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: "put",
		Args: [][]byte{[]byte("hot"), []byte("0")}})
	if r := c.Execute(seed); !r.Committed {
		t.Fatalf("seed: %+v", r)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	committed, conflicts := 0, 0
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, _ := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: "modify",
				Args: [][]byte{[]byte("hot"), []byte(fmt.Sprintf("w%d", w))}})
			r := c.Execute(tx)
			mu.Lock()
			defer mu.Unlock()
			if r.Committed {
				committed++
			} else if r.Reason == occ.WriteWriteConflict {
				conflicts++
			}
		}(w)
	}
	wg.Wait()
	if committed == 0 {
		t.Fatal("no writer ever won the hot key")
	}
	if committed+conflicts != 12 {
		t.Fatalf("committed %d + conflicts %d ≠ 12", committed, conflicts)
	}
}

func TestRawPath(t *testing.T) {
	c := small(t)
	if err := c.RawPut("raw/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.RawGet("raw/k")
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("RawGet = %q, %v", v, err)
	}
}

func TestStateBytes(t *testing.T) {
	c := small(t)
	before := c.StateBytes()
	if err := c.RawPut("kv/big", make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	// StateBytes reads replica 0 of each region, which may apply shortly
	// after the (leader-resolved) RawPut returns.
	deadline := time.Now().Add(5 * time.Second)
	for c.StateBytes() <= before {
		if time.Now().After(deadline) {
			t.Fatal("StateBytes did not grow")
		}
		time.Sleep(time.Millisecond)
	}
}
