package txn

import (
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
// is 0 or 1 and gates the optional aggregate-endorsement section — any
// other value is rejected to keep the encoding canonical. The Trace never
// crosses the wire; Unmarshal leaves it nil.

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
func (t *Tx) Marshal() []byte {
	out := make([]byte, 0, t.EncodedLen())
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

// decoder is a bounds-checked cursor over an encoded transaction.
type decoder struct {
	data []byte
	off  int
	err  error
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
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u32(what string) uint32 {
	b := d.take(4, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64(what string) uint64 {
	b := d.take(8, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
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

func (d *decoder) bytes(what string) []byte {
	n := int(d.u32(what))
	b := d.take(n, what)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func (d *decoder) str(what string) string {
	n := int(d.u32(what))
	return string(d.take(n, what))
}

// Unmarshal decodes a transaction from its wire form. The decoded
// transaction has a nil Trace: its readers are replay, recovery and
// verifier paths that nobody times per phase, and every Trace method is
// nil-receiver safe.
func Unmarshal(data []byte) (*Tx, error) {
	d := &decoder{data: data}
	hdr := d.take(2, "header")
	if hdr == nil {
		return nil, d.err
	}
	if hdr[0] != codecMagic || hdr[1] != codecVersion {
		return nil, fmt.Errorf("txn: decode: bad magic/version %x/%d", hdr[0], hdr[1])
	}
	t := &Tx{}
	copy(t.ID[:], d.take(len(t.ID), "id"))
	t.Client = d.str("client")
	t.Invocation.Contract = d.str("contract")
	t.Invocation.Method = d.str("method")
	if n := d.count(4, "args"); n > 0 {
		t.Invocation.Args = make([][]byte, n)
		for i := range t.Invocation.Args {
			t.Invocation.Args[i] = d.bytes("arg")
		}
	}
	if n := d.count(16, "reads"); n > 0 {
		t.RWSet.Reads = make([]Read, n)
		for i := range t.RWSet.Reads {
			t.RWSet.Reads[i].Key = d.str("read key")
			t.RWSet.Reads[i].Version.BlockNum = d.u64("read blocknum")
			t.RWSet.Reads[i].Version.TxNum = d.u32("read txnum")
		}
	}
	if n := d.count(5, "writes"); n > 0 {
		t.RWSet.Writes = make([]Write, n)
		for i := range t.RWSet.Writes {
			t.RWSet.Writes[i].Key = d.str("write key")
			present := d.take(1, "write flag")
			if len(present) == 1 && present[0] != 0 {
				v := d.bytes("write value")
				if v == nil && d.err == nil {
					v = []byte{}
				}
				t.RWSet.Writes[i].Value = v
			}
		}
	}
	if n := d.count(4+len(cryptoutil.Signature{}), "endorsements"); n > 0 {
		t.Endorsements = make([]Endorsement, n)
		for i := range t.Endorsements {
			t.Endorsements[i].Peer = d.str("endorser")
			copy(t.Endorsements[i].Sig[:], d.take(len(t.Sig), "endorsement sig"))
		}
	}
	switch flag := d.take(1, "aggregate flag"); {
	case flag == nil:
	case flag[0] == 1:
		a := &AggregateEndorsement{Leader: d.str("aggregation leader")}
		copy(a.Agg.Commitment[:], d.take(len(a.Agg.Commitment), "aggregate commitment"))
		copy(a.Agg.Sig[:], d.take(len(a.Agg.Sig), "aggregate sig"))
		t.AggEndorsement = a
	case flag[0] != 0:
		return nil, fmt.Errorf("txn: decode: bad aggregate flag %d", flag[0])
	}
	copy(t.Sig[:], d.take(len(t.Sig), "sig"))
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("txn: decode: %d trailing bytes", len(data)-d.off)
	}
	return t, nil
}
