package txn

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dichotomy/internal/cryptoutil"
)

// Wire codec for whole transactions. Blocks persist their transactions in
// this encoding (the replay source crash recovery rebuilds a node from),
// and storage-based systems ship transaction effects through the shared
// log with it. The encoding is deterministic: the same Tx always yields
// the same bytes, so Merkle roots computed over marshalled transactions
// are stable across live commit and replay.
//
// Layout (all integers big-endian):
//
//	magic u8 | version u8 | id [32] | client str | contract str |
//	method str | nargs u32 | args... | nreads u32 | reads... |
//	nwrites u32 | writes... | nendorse u32 | endorsements... |
//	agg u8 | [leader str | commitment [32] | aggsig [64]] | sig [64]
//
// where str and byte fields carry a u32 length prefix, a read is
// key str | blockNum u64 | txNum u32, a write is key str | present u8 |
// value bytes (present distinguishes a deletion's nil value from an empty
// one), and an endorsement is peer str | sig [64]. The agg flag (version 2)
// gates the optional aggregate-endorsement section. Both flags are 0 or 1 —
// any other value is rejected to keep the encoding canonical, so whatever
// decodes re-encodes to the same bytes. The Trace never crosses the wire;
// a decoded transaction's is nil.
//
// A block is its transactions' encodings laid back to back, with no
// framing of its own: each encoding delimits itself. Quorum's consensus
// entries carry blocks this way, Fabric's and Veritas's shared-log records
// one transaction each, and Block decodes both.

const (
	codecMagic = 0xD7
	// codecVersion 2 added the aggregate-endorsement section. Encodings are
	// in-process artifacts (ledger blocks, checkpoints, the shared log), so
	// there is no cross-version compatibility to keep: a version-1 payload
	// cannot outlive the process that wrote it.
	codecVersion = 2
)

// EncodedLen returns the exact length Marshal produces, computed from
// the wire layout. Marshal sizes its buffer with it, so encoding a
// transaction is a single allocation regardless of shape — this codec
// sits on both the per-block ledger path and the delta checkpoint path,
// where the old ballpark capacity (128 + Size()) under-allocated on
// read-heavy transactions and regrew the buffer mid-append.
func (t *Tx) EncodedLen() int {
	n := 2 + len(t.ID) // magic, version, id
	n += 4 + len(t.Client)
	n += 4 + len(t.Invocation.Contract)
	n += 4 + len(t.Invocation.Method)
	n += 4
	for _, a := range t.Invocation.Args {
		n += 4 + len(a)
	}
	n += 4 + len(t.RWSet.Reads)*(4+12)
	for _, r := range t.RWSet.Reads {
		n += len(r.Key)
	}
	n += 4
	for _, w := range t.RWSet.Writes {
		n += 4 + len(w.Key) + 1
		if w.Value != nil {
			n += 4 + len(w.Value)
		}
	}
	n += 4
	for _, e := range t.Endorsements {
		n += 4 + len(e.Peer) + len(e.Sig)
	}
	n++ // aggregate flag
	if a := t.AggEndorsement; a != nil {
		n += 4 + len(a.Leader) + len(a.Agg.Commitment) + len(a.Agg.Sig)
	}
	n += len(t.Sig)
	return n
}

// Marshal encodes the transaction into its deterministic wire form.
func (t *Tx) Marshal() []byte { return t.AppendTo(make([]byte, 0, t.EncodedLen())) }

// AppendTo appends the transaction's wire form to out — a producer that
// sizes out with EncodedLen encodes straight into the buffer consensus
// carries, with no copy after.
func (t *Tx) AppendTo(out []byte) []byte {
	out = append(out, codecMagic, codecVersion)
	out = append(out, t.ID[:]...)
	out = appendStr(out, t.Client)
	out = appendStr(out, t.Invocation.Contract)
	out = appendStr(out, t.Invocation.Method)
	out = appendCount(out, len(t.Invocation.Args))
	for _, a := range t.Invocation.Args {
		out = appendBytes(out, a)
	}
	out = appendCount(out, len(t.RWSet.Reads))
	for _, r := range t.RWSet.Reads {
		out = appendStr(out, r.Key)
		out = binary.BigEndian.AppendUint64(out, r.Version.BlockNum)
		out = binary.BigEndian.AppendUint32(out, r.Version.TxNum)
	}
	out = appendCount(out, len(t.RWSet.Writes))
	for _, w := range t.RWSet.Writes {
		out = appendStr(out, w.Key)
		if w.Value == nil {
			out = append(out, 0)
		} else {
			out = append(out, 1)
			out = appendBytes(out, w.Value)
		}
	}
	out = appendCount(out, len(t.Endorsements))
	for _, e := range t.Endorsements {
		out = appendStr(out, e.Peer)
		out = append(out, e.Sig[:]...)
	}
	if a := t.AggEndorsement; a != nil {
		out = append(out, 1)
		out = appendStr(out, a.Leader)
		out = append(out, a.Agg.Commitment[:]...)
		out = append(out, a.Agg.Sig[:]...)
	} else {
		out = append(out, 0)
	}
	out = append(out, t.Sig[:]...)
	return out
}

// decoder is a bounds-checked cursor over encoded transactions, and the
// one walk of the wire layout (tx). It fills a transaction in one of two
// ways: with blk nil every field is a fresh heap copy (Unmarshal); with blk
// set, []byte fields alias the input, slices are cut from blk's slabs, and
// a transaction's strings are copied out together, into one string
// (Block).
type decoder struct {
	data []byte
	off  int
	err  error
	blk  *Block
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("txn: decode %s: truncated at offset %d", what, d.off)
	}
}

func (d *decoder) take(n int, what string) []byte {
	if d.err != nil || d.off+n > len(d.data) {
		d.fail(what)
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32(what string) uint32 {
	if b := d.take(4, what); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64(what string) uint64 {
	if b := d.take(8, what); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads a length prefix and sanity-bounds it against the remaining
// bytes (each element needs at least per bytes), so a corrupt prefix
// cannot trigger a huge allocation.
func (d *decoder) count(per int, what string) int {
	n := int(d.u32(what))
	if d.err == nil && n*per > len(d.data)-d.off {
		d.fail(what + " count")
		return 0
	}
	return n
}

// flag reads a 0-or-1 byte; any other value fails the decode.
func (d *decoder) flag(what string) bool {
	b := d.take(1, what)
	if b != nil && b[0] > 1 {
		d.err = fmt.Errorf("txn: decode: bad %s %d", what, b[0])
	}
	return b != nil && b[0] == 1
}

// bytes reads a length-prefixed field: a copy, or in a block the input
// itself. Either is non-nil unless the decode failed, so a present empty
// value stays distinct from a deletion's nil.
func (d *decoder) bytes(what string) []byte {
	b := d.take(int(d.u32(what)), what)
	if d.blk == nil {
		return bytes.Clone(b)
	}
	return b
}

// str reads a length-prefixed string into *dst: a copy of its own, or in a
// block a slice of the transaction's one string, filled in when the
// transaction ends (Block.strings).
func (d *decoder) str(dst *string, what string) {
	b := d.take(int(d.u32(what)), what)
	if d.blk == nil {
		*dst = string(b)
		return
	}
	lo := len(d.blk.sbuf)
	d.blk.sbuf = append(d.blk.sbuf, b...)
	d.blk.refs = append(d.blk.refs, strRef{dst, lo, len(d.blk.sbuf)})
}

// tx walks one encoded transaction from the cursor into t.
func (d *decoder) tx(t *Tx) {
	hdr := d.take(2, "header")
	if hdr == nil {
		return
	}
	if hdr[0] != codecMagic || hdr[1] != codecVersion {
		d.err = fmt.Errorf("txn: decode: bad magic/version %x/%d", hdr[0], hdr[1])
		return
	}
	copy(t.ID[:], d.take(len(t.ID), "id"))
	d.str(&t.Client, "client")
	d.str(&t.Invocation.Contract, "contract")
	d.str(&t.Invocation.Method, "method")
	if n := d.count(4, "args"); n > 0 {
		t.Invocation.Args = cut(d, func(b *Block) *[][]byte { return &b.args }, n)
		for i := range t.Invocation.Args {
			t.Invocation.Args[i] = d.bytes("arg")
		}
	}
	if n := d.count(16, "reads"); n > 0 {
		t.RWSet.Reads = cut(d, func(b *Block) *[]Read { return &b.reads }, n)
		for i := range t.RWSet.Reads {
			r := &t.RWSet.Reads[i]
			d.str(&r.Key, "read key")
			r.Version.BlockNum = d.u64("read blocknum")
			r.Version.TxNum = d.u32("read txnum")
		}
	}
	if n := d.count(5, "writes"); n > 0 {
		t.RWSet.Writes = cut(d, func(b *Block) *[]Write { return &b.writes }, n)
		for i := range t.RWSet.Writes {
			w := &t.RWSet.Writes[i]
			d.str(&w.Key, "write key")
			if d.flag("write flag") {
				w.Value = d.bytes("write value")
			}
		}
	}
	if n := d.count(4+len(cryptoutil.Signature{}), "endorsements"); n > 0 {
		t.Endorsements = cut(d, func(b *Block) *[]Endorsement { return &b.ends }, n)
		for i := range t.Endorsements {
			e := &t.Endorsements[i]
			d.str(&e.Peer, "endorser")
			copy(e.Sig[:], d.take(len(e.Sig), "endorsement sig"))
		}
	}
	if d.flag("aggregate flag") {
		a := &cut(d, func(b *Block) *[]AggregateEndorsement { return &b.aggs }, 1)[0]
		d.str(&a.Leader, "aggregation leader")
		copy(a.Agg.Commitment[:], d.take(len(a.Agg.Commitment), "aggregate commitment"))
		copy(a.Agg.Sig[:], d.take(len(a.Agg.Sig), "aggregate sig"))
		t.AggEndorsement = a
	}
	copy(t.Sig[:], d.take(len(t.Sig), "sig"))
}

// cut returns n zeroed elements: a fresh slice, or in a block the next n
// of the slab slab selects. A slab without room is replaced by a larger
// one rather than grown in place, so elements already cut — and every
// pointer into them — stay where they are.
func cut[T any](d *decoder, slab func(*Block) *[]T, n int) []T {
	if d.blk == nil {
		return make([]T, n)
	}
	s := slab(d.blk)
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(2*cap(*s), n, 8))
	}
	lo := len(*s)
	*s = (*s)[:lo+n]
	return (*s)[lo : lo+n : lo+n]
}

// Unmarshal decodes a transaction from its wire form into fresh memory,
// one allocation per field. The decoded transaction has a nil Trace: its
// readers are replay, recovery and verifier paths that nobody times per
// phase, and every Trace method is nil-receiver safe.
func Unmarshal(data []byte) (*Tx, error) {
	d := &decoder{data: data}
	t := &Tx{}
	if d.tx(t); d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("txn: decode: %d trailing bytes", len(data)-d.off)
	}
	return t, nil
}

// Block is one block's transactions decoded as views over the bytes they
// arrived in, the way every ledger replica's Decode stage reads its own
// copy of a consensus entry or shared-log batch. A view's []byte fields
// (arguments, written values) alias the input, so the input must not
// change while a view is read — consensus entries and ledger payloads
// never do. Its strings are its own: each transaction's are copied out
// together into one allocation, so a key that outlives the block (a state
// map key) pins a few dozen bytes, not the block. Raw is the caller's to
// keep — a ledger seals it — so each block's is its own slice. Everything
// else — the Tx structs and their slices — is cut from slabs the Block
// keeps, so a Block that is Reset and decodes the next block allocates
// only Raw and those strings.
//
// The zero value is an empty Block ready to decode into.
type Block struct {
	// Txs are the decoded transactions in block order; Raw[i] is Txs[i]'s
	// wire bytes, a subslice of the input — what a ledger seals, and keeps.
	Txs []*Tx
	Raw [][]byte

	txs    []Tx
	args   [][]byte
	reads  []Read
	writes []Write
	ends   []Endorsement
	aggs   []AggregateEndorsement
	// sbuf gathers the strings of the transaction being decoded, and refs
	// where each goes once the transaction's one string is made.
	sbuf []byte
	refs []strRef
}

// strRef is a string field waiting for its slice of a transaction's string.
type strRef struct {
	dst    *string
	lo, hi int
}

// Decode appends the transactions laid back to back in data — a Quorum
// consensus entry's block — to the block; empty data appends none. On an
// error the block holds what it held before the call.
func (b *Block) Decode(data []byte) error { return b.decode(data, false) }

// DecodeOne appends the one transaction rec encodes — a shared-log record
// or a ledger payload — to the block. On an error (rec empty, corrupt, or
// longer than one transaction) the block holds what it held before.
func (b *Block) DecodeOne(rec []byte) error { return b.decode(rec, true) }

func (b *Block) decode(data []byte, one bool) error {
	n := len(b.Txs)
	d := decoder{data: data, blk: b}
	if b.Raw == nil {
		b.Raw = make([][]byte, 0, max(cap(b.Txs), 1)) // the last block's size
	}
	for d.off < len(data) || one && len(b.Txs) == n {
		start := d.off
		t := &cut(&d, func(b *Block) *[]Tx { return &b.txs }, 1)[0]
		b.sbuf, b.refs = b.sbuf[:0], b.refs[:0]
		if d.tx(t); d.err == nil && one && d.off != len(data) {
			d.err = fmt.Errorf("txn: decode: %d trailing bytes", len(data)-d.off)
		}
		if d.err != nil {
			clear(b.Txs[n:])
			b.Txs, b.Raw = b.Txs[:n], b.Raw[:n]
			return d.err
		}
		b.strings()
		b.Txs = append(b.Txs, t)
		b.Raw = append(b.Raw, data[start:d.off:d.off])
	}
	return nil
}

// strings makes the decoded transaction's one string and points each of
// its string fields into it.
func (b *Block) strings() {
	s := string(b.sbuf)
	for _, r := range b.refs {
		*r.dst = s[r.lo:r.hi]
	}
	clear(b.refs)
}

// Reset empties the block and keeps its slabs for the next decode. It
// zeroes every view the block handed out, so nothing may read one after:
// a replica resets a block once its Seal stage is done with it. Raw is let
// go, not zeroed: whoever sealed it keeps it.
func (b *Block) Reset() {
	b.Txs, b.Raw = emptied(b.Txs), nil
	b.txs, b.args, b.reads, b.writes, b.ends, b.aggs = emptied(b.txs), emptied(b.args), emptied(b.reads), emptied(b.writes), emptied(b.ends), emptied(b.aggs)
}

// emptied zeroes s and returns it empty, its capacity kept.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}
