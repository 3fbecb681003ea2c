package contract

import (
	"errors"
	"fmt"
	"testing"

	"dichotomy/internal/israce"
	"dichotomy/internal/txn"
)

// bankOf returns a state holding n funded Smallbank accounts named as the
// workload generator names them.
func bankOf(tb testing.TB, n int) (*mapState, *Registry) {
	tb.Helper()
	st, reg := newMapState(), NewRegistry(Smallbank{}, KV{})
	for i := 0; i < n; i++ {
		rw, err := reg.Execute(st, txn.Invocation{Contract: SmallbankName, Method: "create_account",
			Args: [][]byte{acct(i), EncodeInt64(1_000_000), EncodeInt64(1_000_000)}})
		if err != nil {
			tb.Fatal(err)
		}
		st.apply(rw, txn.Version{BlockNum: 1, TxNum: uint32(i)})
	}
	return st, reg
}

func acct(i int) []byte { return []byte(fmt.Sprintf("acct%08d", i)) }

// executeCase is one invocation whose allocations are pinned.
type executeCase struct {
	name   string
	inv    txn.Invocation
	abort  bool // the contract rejects it on a business rule
	allocs float64
}

func smallbankCall(method string, args ...[]byte) txn.Invocation {
	return txn.Invocation{Contract: SmallbankName, Method: method, Args: args}
}

var executeCases = []executeCase{
	// The stub alone: the keys and balances fit in its space, and an abort
	// returns a package-level error.
	{"send_payment", smallbankCall("send_payment", acct(0), acct(1), EncodeInt64(5)), false, 1},
	{"deposit_checking", smallbankCall("deposit_checking", acct(0), EncodeInt64(5)), false, 1},
	{"amalgamate", smallbankCall("amalgamate", acct(0), acct(1)), false, 1},
	{"send_payment_abort", smallbankCall("send_payment", acct(0), acct(1), EncodeInt64(2_000_000)), true, 1},
	// The stub and the value's copy, which outgrows the space.
	{"kv_modify", txn.Invocation{Contract: KVName, Method: "modify",
		Args: [][]byte{[]byte("user000000001"), make([]byte, 1000)}}, false, 2},
}

// execute runs c once and fails tb unless it ends as c expects.
func (c executeCase) execute(tb testing.TB, reg *Registry, st StateReader) {
	_, err := reg.Execute(st, c.inv)
	if c.abort && !errors.Is(err, ErrAbort) || !c.abort && err != nil {
		tb.Fatalf("%s: err = %v, want an abort: %v", c.name, err, c.abort)
	}
}

// TestExecuteAllocs pins what one execution costs an order-execute replica
// (every node runs every transaction): the stub, and nothing else unless a
// value outgrows the stub's space. Keys and balances are copied into that
// space, a business abort returns a package-level error, and EncodeInt64
// inlines into Invoke, so a balance is encoded on the stack.
func TestExecuteAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	st, reg := bankOf(t, 2)
	for _, c := range executeCases {
		got := testing.AllocsPerRun(200, func() { c.execute(t, reg, st) })
		if got > c.allocs {
			t.Errorf("%s: %.0f allocs per Execute, want ≤ %.0f", c.name, got, c.allocs)
		}
	}
}

func BenchmarkContractExecute(b *testing.B) {
	st, reg := bankOf(b, 2)
	for _, c := range executeCases {
		b.Run("method="+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.execute(b, reg, st)
			}
		})
	}
}

// TestStubLargeWriteSet: a write set far past the inline arrays keeps
// first-write order, last-write values and read-your-writes, and past
// indexAfter keys the stub finds them through its index — a 1 000-key
// multi does not scan a 1 000-entry slice per key.
func TestStubLargeWriteSet(t *testing.T) {
	const distinct = 1000
	var args [][]byte
	for round := 0; round < 2; round++ {
		for i := 0; i < distinct; i++ {
			args = append(args, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d-%d", round, i)))
		}
	}
	stub := NewStub(newMapState())
	if err := (KV{}).Invoke(stub, "multi", args); err != nil {
		t.Fatal(err)
	}
	if len(stub.index) != distinct {
		t.Fatalf("index holds %d keys, want %d", len(stub.index), distinct)
	}
	stub.DelState("k0007")
	rw := stub.RWSet()
	// The second round read its own writes: only the first reached state.
	if len(rw.Reads) != distinct || len(rw.Writes) != distinct {
		t.Fatalf("%d reads, %d writes, want %d of each", len(rw.Reads), len(rw.Writes), distinct)
	}
	for i, w := range rw.Writes {
		wantKey, wantVal := fmt.Sprintf("k%04d", i), fmt.Sprintf("v1-%d", i)
		if w.Key != wantKey || rw.Reads[i].Key != wantKey {
			t.Fatalf("position %d: write %q, read %q, want %q", i, w.Key, rw.Reads[i].Key, wantKey)
		}
		if i == 7 {
			if w.Value != nil {
				t.Fatalf("deleted key holds %q", w.Value)
			}
			continue
		}
		if string(w.Value) != wantVal {
			t.Fatalf("%s = %q, want %q", w.Key, w.Value, wantVal)
		}
	}
}

// TestStubAcrossThresholds walks the write set across both thresholds —
// the inline array's end and the index's start — checking after every
// write that each key written so far reads back its last value.
func TestStubAcrossThresholds(t *testing.T) {
	stub := NewStub(newMapState())
	last := map[string]byte{}
	put := func(key string, b byte) {
		stub.PutState(key, []byte{b})
		last[key] = b
	}
	for i := 0; i < 2*indexAfter; i++ {
		put(fmt.Sprintf("k%02d", i), byte(i))
		put(fmt.Sprintf("k%02d", i/2), byte(100+i)) // overwrite an earlier key
		for key, want := range last {
			if v, err := stub.GetState(key); err != nil || len(v) != 1 || v[0] != want {
				t.Fatalf("after %d keys: %s = %v, %v, want [%d]", i+1, key, v, err, want)
			}
		}
	}
	if rw := stub.RWSet(); len(rw.Writes) != 2*indexAfter || len(rw.Reads) != 0 {
		t.Fatalf("%d writes, %d reads, want %d and 0", len(rw.Writes), len(rw.Reads), 2*indexAfter)
	}
}
