package txn

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/israce"
)

// goldenBlock is the golden transactions' encodings back to back, as a
// Quorum entry carries a block.
func goldenBlock() (data []byte, wires [][]byte) {
	for _, g := range goldenTxs() {
		w := g.tx.Marshal()
		wires = append(wires, w)
		data = append(data, w...)
	}
	return data, wires
}

// A block decodes to what Unmarshal decodes, transaction by transaction,
// whether it arrives as one entry or as one record per transaction; its
// Raw are the input's own bytes, and so are its []byte fields.
func TestBlockMatchesUnmarshal(t *testing.T) {
	data, wires := goldenBlock()
	var entry, records Block
	if err := entry.Decode(data); err != nil {
		t.Fatal(err)
	}
	for _, w := range wires {
		if err := records.DecodeOne(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*Block{&entry, &records} {
		if len(b.Txs) != len(wires) || len(b.Raw) != len(wires) {
			t.Fatalf("decoded %d txs and %d raw, want %d", len(b.Txs), len(b.Raw), len(wires))
		}
		for i, w := range wires {
			want, err := Unmarshal(w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b.Txs[i], want) {
				t.Fatalf("tx %d:\n got %#v\nwant %#v", i, b.Txs[i], want)
			}
			if !bytes.Equal(b.Raw[i], w) {
				t.Fatalf("raw %d differs from the transaction's encoding", i)
			}
		}
	}
	// The views alias the entry: the first transaction's first argument
	// and the last one's written value lie inside data.
	inside := func(b []byte) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(data))
	}
	last := entry.Txs[len(entry.Txs)-1]
	if !inside(entry.Txs[0].Invocation.Args[0]) || !inside(last.RWSet.Writes[0].Value) || !inside(entry.Raw[1]) {
		t.Fatal("a block view copied a []byte field instead of aliasing the entry")
	}
}

// A decode that fails leaves the block as it was, and DecodeOne takes
// exactly one transaction.
func TestBlockErrorKeepsWhatItHeld(t *testing.T) {
	data, wires := goldenBlock()
	var b Block
	if err := b.Decode(nil); err != nil || len(b.Txs) != 0 {
		t.Fatalf("empty entry: %v, %d txs; want an empty block", err, len(b.Txs))
	}
	if err := b.DecodeOne(wires[0]); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func() error{
		"truncated entry":      func() error { return b.Decode(data[:len(data)-1]) },
		"corrupt second tx":    func() error { return b.Decode(append(bytes.Clone(wires[1]), 0xFF, 0)) },
		"two txs as one":       func() error { return b.DecodeOne(data) },
		"empty record":         func() error { return b.DecodeOne(nil) },
		"trailing record byte": func() error { return b.DecodeOne(append(bytes.Clone(wires[1]), 0)) },
	} {
		if err := bad(); err == nil {
			t.Fatalf("%s decoded cleanly", name)
		}
		if len(b.Txs) != 1 || len(b.Raw) != 1 || !bytes.Equal(b.Raw[0], wires[0]) {
			t.Fatalf("%s: the block holds %d txs, want the one it held before", name, len(b.Txs))
		}
	}
	// A write flag other than 0 or 1 is not canonical: it would re-encode
	// differently.
	flagged := bytes.Clone(wires[0])
	at := bytes.Index(flagged, []byte("gone")) + len("gone")
	flagged[at] = 2
	if _, err := Unmarshal(flagged); err == nil {
		t.Fatal("a write flag of 2 decoded")
	}
}

// Reset zeroes every view the block handed out — what makes a reader past
// its Seal stage show up as wrong data, and under the race detector as a
// race with the next decode.
func TestBlockResetZeroesViews(t *testing.T) {
	data, _ := goldenBlock()
	var b Block
	if err := b.Decode(data); err != nil {
		t.Fatal(err)
	}
	tx := b.Txs[0]
	b.Reset()
	if len(b.Txs) != 0 || b.Raw != nil || tx.Client != "" || tx.Invocation.Args != nil {
		t.Fatalf("Reset left %d txs, or a view still reads %q", len(b.Txs), tx.Client)
	}
	if err := b.Decode(data); err != nil || len(b.Txs) != 3 {
		t.Fatalf("decode after Reset: %v, %d txs", err, len(b.Txs))
	}
}

// fabricTx and smallbankTx are the two shapes the ledger side decodes per
// block: a Fabric update with a 1 KB value and four endorsements, and a
// Quorum Smallbank call.
func fabricTx(i int) *Tx {
	g := goldenTxs()[2].tx
	t := *g
	t.Invocation.Args = [][]byte{[]byte(fmt.Sprintf("user%08d", i)), g.Invocation.Args[1]}
	return &t
}

func smallbankTx(i int) *Tx {
	var sig cryptoutil.Signature
	return &Tx{
		Client:     "bench-client",
		Invocation: Invocation{Contract: "smallbank", Method: "send_payment", Args: [][]byte{[]byte(fmt.Sprintf("acct%d", i)), []byte("acct7"), []byte("00000005")}},
		Sig:        sig,
	}
}

// The steady-state decode of a block into a reused Block: the slabs and Txs
// are the previous block's, and its names are interned, so what is left is
// one allocation per block, Raw — the slice the ledger seals and keeps,
// sized by the last block. The Fabric batch's client name (68 bytes) is
// longer than the table takes, so each of its transactions still copies
// out its one string: client, contract, method, keys and endorser names.
func TestBlockDecodeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	const txs = 100
	records := make([][]byte, txs)
	var entry []byte
	for i := range records {
		records[i] = fabricTx(i).Marshal()
		entry = smallbankTx(i).AppendTo(entry)
	}
	var batch, block Block
	for _, c := range []struct {
		name   string
		want   float64
		decode func()
	}{
		{"100-record Fabric batch", 1 + txs, func() {
			batch.Reset()
			for _, rec := range records {
				if err := batch.DecodeOne(rec); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"100-transaction Quorum entry", 1, func() {
			block.Reset()
			if err := block.Decode(entry); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		c.decode() // size the slabs and fill the table
		if got := testing.AllocsPerRun(50, c.decode); got != c.want {
			t.Errorf("%s: %v allocs per block, want %v", c.name, got, c.want)
		}
	}
}

// An interned name is the string a fresh decode gives, and it is the same
// string every time the block meets the name again: after Reset, and
// when the block decodes the same entry again. A string the block handed
// out never changes, whatever it decodes later.
func TestBlockInternedNames(t *testing.T) {
	var entry []byte
	for i := range 10 {
		entry = smallbankTx(i).AppendTo(entry)
	}
	var b Block
	if err := b.Decode(entry); err != nil {
		t.Fatal(err)
	}
	first := b.Txs[3]
	client, contract, method := first.Client, first.Invocation.Contract, first.Invocation.Method
	for _, tx := range b.Txs {
		if unsafe.StringData(tx.Client) != unsafe.StringData(client) || unsafe.StringData(tx.Invocation.Method) != unsafe.StringData(method) {
			t.Fatal("a repeated name within one block was copied out again")
		}
	}
	b.Reset()
	data, _ := goldenBlock() // other names, decoded into the same table
	if err := b.Decode(data); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := b.Decode(entry); err != nil {
		t.Fatal(err)
	}
	if client != "bench-client" || contract != "smallbank" || method != "send_payment" {
		t.Fatalf("names handed out changed to %q %q %q", client, contract, method)
	}
	for i, tx := range b.Txs {
		want, err := Unmarshal(b.Raw[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tx, want) {
			t.Fatalf("tx %d: interned decode %#v, fresh decode %#v", i, tx, want)
		}
		if unsafe.StringData(tx.Client) != unsafe.StringData(client) || unsafe.StringData(tx.Invocation.Contract) != unsafe.StringData(contract) {
			t.Fatalf("tx %d: a name met before the Reset was not the interned string", i)
		}
	}
}

// Past the table's cap a block still decodes every name right: a block of
// more distinct keys than the table takes, and names longer than it takes,
// decodes as Unmarshal does, re-encodes to its input, and leaves the table
// at its cap.
func TestBlockInternPastTheCap(t *testing.T) {
	const n = internCap + 500
	var data []byte
	for i := range n {
		tx := smallbankTx(i)
		tx.RWSet.Writes = []Write{{Key: fmt.Sprintf("key-%06d", i), Value: []byte("v")}}
		if i%7 == 0 {
			tx.Client = fmt.Sprintf("%0*d", internMaxLen+1, i)
		}
		data = tx.AppendTo(data)
	}
	var b Block
	for round := range 2 { // the second round meets a full table
		b.Reset()
		if err := b.Decode(data); err != nil {
			t.Fatal(err)
		}
		if len(b.Txs) != n {
			t.Fatalf("round %d: %d txs, want %d", round, len(b.Txs), n)
		}
		var enc []byte
		for i, tx := range b.Txs {
			enc = tx.AppendTo(enc)
			if want, err := Unmarshal(b.Raw[i]); err != nil || !reflect.DeepEqual(tx, want) {
				t.Fatalf("round %d, tx %d decodes differently from Unmarshal (%v)", round, i, err)
			}
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("round %d: the block does not re-encode to its input", round)
		}
		if len(b.names) != internCap {
			t.Fatalf("round %d: the table holds %d names, want its cap %d", round, len(b.names), internCap)
		}
	}
}

// FuzzBlockRoundTrip drives the block decoder with arbitrary bytes: it
// must reject corruption with an error, never a panic, and leave the block
// empty; whatever it accepts re-encodes to exactly the input, transaction
// by transaction, and decodes as Unmarshal decodes each one.
func FuzzBlockRoundTrip(f *testing.F) {
	data, wires := goldenBlock()
	for _, b := range [][]byte{
		data, wires[0], wires[1], {},
		data[:len(data)-1],                         // last tx cut short
		append(bytes.Clone(wires[1]), codecMagic),  // a second tx's header cut short
		append(bytes.Clone(wires[1]), wires[1]...), // the same tx twice
		{codecMagic, codecVersion}, {0},
	} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Block
		if err := b.Decode(data); err != nil {
			if len(b.Txs) != 0 || len(b.Raw) != 0 {
				t.Fatalf("failed decode left %d txs", len(b.Txs))
			}
			return
		}
		var enc []byte
		for i, tx := range b.Txs {
			enc = tx.AppendTo(enc)
			want, err := Unmarshal(b.Raw[i])
			if err != nil {
				t.Fatalf("tx %d: Unmarshal of its raw bytes: %v", i, err)
			}
			if !reflect.DeepEqual(tx, want) {
				t.Fatalf("tx %d decodes differently from Unmarshal", i)
			}
		}
		if !bytes.Equal(enc, data) {
			t.Fatal("a decoded block does not re-encode byte-identically")
		}
		var one Block
		if err := one.DecodeOne(data); (err == nil) != (len(b.Txs) == 1) {
			t.Fatalf("DecodeOne: %v for an input of %d txs", err, len(b.Txs))
		}
	})
}

// BenchmarkBlockDecode is a replica's Decode stage per transaction, for the
// two shapes the ledger side decodes into a reused Block: a Quorum entry
// of 100 Smallbank calls, whose names the block has interned, and a Fabric
// batch of 100 records, each a 1 KB update with four endorsements, whose
// 68-byte client name is past internMaxLen, so each record still copies
// out its one string.
func BenchmarkBlockDecode(b *testing.B) {
	const txs = 100
	records := make([][]byte, txs)
	var entry []byte
	for i := range records {
		records[i] = fabricTx(i).Marshal()
		entry = smallbankTx(i).AppendTo(entry)
	}
	for _, c := range []struct {
		shape  string
		decode func(*Block) error
	}{
		{"quorum-entry", func(blk *Block) error { return blk.Decode(entry) }},
		{"fabric-batch", func(blk *Block) error {
			for _, rec := range records {
				if err := blk.DecodeOne(rec); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		b.Run("shape="+c.shape, func(b *testing.B) {
			var blk Block
			if err := c.decode(&blk); err != nil { // size the slabs and fill the table
				b.Fatal(err)
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				blk.Reset()
				if err := c.decode(&blk); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			per := float64(b.N * txs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/tx")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/per, "allocs/tx")
		})
	}
}
