package contract

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"dichotomy/internal/txn"
)

// handout is a key or value a stub handed out, beside a copy of the bytes
// it held when it was handed out.
type handout struct {
	what       string
	got, bytes []byte
}

type handouts []handout

func (h *handouts) key(k string) {
	*h = append(*h, handout{"key " + k, unsafe.Slice(unsafe.StringData(k), len(k)), []byte(k)})
}

func (h *handouts) value(k string, v []byte) {
	*h = append(*h, handout{"value of " + k, v, bytes.Clone(v)})
}

// check fails t if any handed-out bytes changed since they were handed out.
func (h handouts) check(t testing.TB, when string) {
	t.Helper()
	for _, o := range h {
		if !bytes.Equal(o.got, o.bytes) {
			t.Fatalf("%s: %s reads %q, was handed out as %q", when, o.what, o.got, o.bytes)
		}
	}
}

// inSpace reports whether b starts inside s's inline space.
func inSpace(s *Stub, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(&s.space))
	return p >= lo && p < lo+spaceLen
}

// TestStubViewsAreStable: the keys and values a stub hands out come from
// one append-only space and then from allocations of their own, and none
// of them changes afterwards — not when later keys and values fill the
// space and spill past its end, not when a holder appends to a value, not
// when the caller reuses the bytes it passed in, and not when RWSet hands
// the write set out. An empty value stays present and empty, not a delete,
// whether the space has room left or none.
func TestStubViewsAreStable(t *testing.T) {
	st := newMapState()
	st.data["sav:acct00000001"] = EncodeInt64(7)
	stub := NewStub(st)
	var out handouts
	want := map[string][]byte{} // the last value put per key; nil = deleted
	var order []string

	src := make([]byte, 2*spaceLen)
	fill := func(n int) []byte { // the caller's bytes, reused after each put
		for i := range src[:n] {
			src[i] = byte(len(order) + i)
		}
		return src[:n]
	}
	put := func(k string, v []byte) {
		stub.PutState(k, v)
		got, err := stub.GetState(k)
		if err != nil || got == nil {
			t.Fatalf("GetState(%q) after PutState = %v, %v; want a present value", k, got, err)
		}
		if _, seen := want[k]; !seen {
			order = append(order, k)
		}
		want[k] = bytes.Clone(got)
		out.value(k, got)
		for i := range src {
			src[i] = 0xFF
		}
		out.check(t, "after PutState("+k+")")
	}
	key := func(prefix, id string) string {
		k := stub.Key(prefix, []byte(id))
		if k != prefix+id {
			t.Fatalf("Key(%q, %q) = %q", prefix, id, k)
		}
		out.key(k)
		out.check(t, "after Key("+k+")")
		return k
	}

	// 16 + 8 + 16 + 0 + 3 + 20 + 17 = 80: the space fills exactly.
	sav := key("sav:", "acct00000001")
	if _, err := stub.GetState(sav); err != nil {
		t.Fatal(err)
	}
	put(sav, fill(8))
	chk := key("chk:", "acct00000002")
	put(chk, nil) // empty, with room left
	e1 := key("e", "01")
	put(e1, fill(20))
	k17 := key("", "seventeen-bytes-k")
	if stub.used != spaceLen {
		t.Fatalf("the space holds %d bytes, want it full at %d", stub.used, spaceLen)
	}
	put(k17, []byte{}) // empty, with no room left
	put(e1, fill(0))   // overwritten with an empty value
	put(key("big", "-value"), fill(2*spaceLen))
	stub.DelState(chk)
	want[chk] = nil
	out.check(t, "after DelState")
	put(key("", "a-key-longer-than-the-space-"+string(bytes.Repeat([]byte{'x'}, spaceLen))), fill(3))

	if !inSpace(stub, out[0].got) || inSpace(stub, out[len(out)-1].got) {
		t.Fatal("the handouts did not cross the end of the inline space")
	}
	for _, o := range out {
		_ = append(o.got, 0xEE) // a holder's append must not reach a later handout
	}
	out.check(t, "after appends to every handout")
	rw := stub.RWSet()
	out.check(t, "after RWSet")
	if len(rw.Writes) != len(order) {
		t.Fatalf("%d writes, want %d", len(rw.Writes), len(order))
	}
	for i, w := range rw.Writes {
		if w.Key != order[i] || !bytes.Equal(w.Value, want[w.Key]) || (w.Value == nil) != (want[w.Key] == nil) {
			t.Fatalf("write %d = %q: %q (nil %v), want %q: %q (nil %v)",
				i, w.Key, w.Value, w.Value == nil, order[i], want[order[i]], want[order[i]] == nil)
		}
	}
	if len(rw.Reads) != 1 || rw.Reads[0].Key != sav {
		t.Fatalf("reads %v, want the one of %s", rw.Reads, sav)
	}
}

// TestKeptValueDoesNotHoldTheReader: a value the store keeps lives inside
// its stub, so it holds the stub; once RWSet has handed the write set out,
// it must not also hold the state reader the stub read through (for an
// order-execute replica, a block's overlay and every stub that wrote into
// it).
func TestKeptValueDoesNotHoldTheReader(t *testing.T) {
	st, reg := bankOf(t, 2)
	reader := &mapState{data: st.data, vers: st.vers}
	rw, err := reg.Execute(reader, smallbankCall("send_payment", acct(0), acct(1), EncodeInt64(5)))
	if err != nil {
		t.Fatal(err)
	}
	kept := rw.Writes[0].Value
	readerGone := weak.Make(reader)
	reader, rw = nil, txn.RWSet{}
	runtime.GC()
	runtime.GC()
	if readerGone.Value() != nil {
		t.Fatal("a value kept from the write set still holds the state reader")
	}
	if DecodeInt64(kept) != 1_000_000-5 {
		t.Fatalf("kept balance %d", DecodeInt64(kept))
	}
}

// FuzzStubMatchesReference drives a stub with a sequence of GetState,
// PutState, DelState and Key calls decoded from the input — keys and values
// up to twice the inline space, so sequences cross its end anywhere — and
// checks every answer, and the RWSet at the end, against a map reference,
// and that no key or value handed out ever changes.
func FuzzStubMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 2, 5, 9, 0, 0, 2, 1, 0, 1, 3, 200, 7, 2, 0, 2})
	f.Add([]byte{3, 1, 6, 1, 1, 7, 0, 1, 40, 1, 1, 6, 0, 0, 1, 6, 160, 2, 1, 6})
	f.Add(bytes.Repeat([]byte{1, 2, 7, 3, 80, 4}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		prefixes := []string{"", "p:", "sav:"}
		idLens := []int{0, 1, 4, 12, 16, 40, 2*spaceLen - 4, 2 * spaceLen}
		nextKey := func(stub *Stub) (string, string) {
			prefix := prefixes[int(next())%len(prefixes)]
			id := bytes.Repeat([]byte{'a' + next()%2}, min(idLens[int(next())%len(idLens)], 2*spaceLen-len(prefix)))
			return stub.Key(prefix, id), prefix + string(id)
		}

		st := newMapState()
		st.data["p:a"] = []byte("committed")
		st.vers["p:a"] = txn.Version{BlockNum: 3, TxNum: 1}
		st.data["sav:bbbb"] = EncodeInt64(42)
		stub := NewStub(st)
		var out handouts
		written := map[string][]byte{} // nil = deleted
		var order []string
		var reads []txn.Read
		write := func(k string, v []byte) {
			if _, seen := written[k]; !seen {
				order = append(order, k)
			}
			written[k] = v
		}

		for len(data) > 0 {
			op := next() % 4
			k, ref := nextKey(stub)
			if k != ref {
				t.Fatalf("Key built %q, want %q", k, ref)
			}
			out.key(k)
			switch op {
			case 0:
				got, err := stub.GetState(k)
				want, seen := written[k]
				if !seen {
					var ver txn.Version
					want, ver = st.data[k], st.vers[k]
					reads = append(reads, txn.Read{Key: k, Version: ver})
				}
				if want == nil {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("GetState(%q) = %q, %v; want ErrNotFound", k, got, err)
					}
				} else if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("GetState(%q) = %q, %v; want %q", k, got, err, want)
				}
			case 1:
				n := int(next()) % (2*spaceLen + 1)
				var v []byte
				if n > 0 || next()%2 == 0 {
					v = bytes.Repeat([]byte{next()}, n)
				}
				stub.PutState(k, v)
				got, _ := stub.GetState(k)
				out.value(k, got)
				for i := range v {
					v[i] ^= 0xFF // the caller reuses its buffer
				}
				write(k, bytes.Clone(got))
				if written[k] == nil {
					t.Fatalf("PutState(%q, %q) reads back as a delete", k, v)
				}
			case 2:
				stub.DelState(k)
				write(k, nil)
			}
			out.check(t, fmt.Sprintf("after op %d on %q", op, k))
		}

		rw := stub.RWSet()
		out.check(t, "after RWSet")
		if len(rw.Writes) != len(order) || len(rw.Reads) != len(reads) {
			t.Fatalf("%d writes, %d reads; want %d and %d", len(rw.Writes), len(rw.Reads), len(order), len(reads))
		}
		for i, w := range rw.Writes {
			want := written[order[i]]
			if w.Key != order[i] || !bytes.Equal(w.Value, want) || (w.Value == nil) != (want == nil) {
				t.Fatalf("write %d = %q: %q, want %q: %q", i, w.Key, w.Value, order[i], want)
			}
		}
		for i, r := range rw.Reads {
			if r != reads[i] {
				t.Fatalf("read %d = %v, want %v", i, r, reads[i])
			}
		}
	})
}
