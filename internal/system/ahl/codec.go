package ahl

import (
	"encoding/binary"
	"math"

	"dichotomy/internal/consensus"
	"dichotomy/internal/txn"
)

// Shard-command wire codec. A command rides inside its PBFT entry, so
// every member of the shard decodes and applies its own copy. The entry
// opens with the consensus.Header bytes the group frames it with; the body
// after them is (big-endian)
//
//	kind u8 | commit u8 | txID | contract | method |
//	nargs u32 | arg… | nwrites u32 | (key | value)…
//
// where every string and byte slice is a u32 length, then its bytes, and a
// byte slice's length nilLen stands for nil: a nil write value deletes its
// key. The decoded byte slices alias the entry, which nothing mutates once
// proposed; decode accepts only this canonical form, so encoding what it
// returns reproduces its input byte for byte.

// nilLen is the length a nil byte slice is encoded with.
const nilLen = math.MaxUint32

// encodeShardCmd returns cmd's log entry, its header left for
// system.Group.Propose to fill in.
func encodeShardCmd(cmd *shardCmd) []byte {
	n := consensus.Header + 2 + 4*5 + len(cmd.txID) + len(cmd.inv.Contract) + len(cmd.inv.Method)
	for _, a := range cmd.inv.Args {
		n += 4 + len(a)
	}
	for _, w := range cmd.writes {
		n += 8 + len(w.Key) + len(w.Value)
	}
	buf := make([]byte, consensus.Header, n)
	buf = append(buf, byte(cmd.kind), 0)
	if cmd.commitP {
		buf[len(buf)-1] = 1
	}
	buf = appendField(buf, cmd.txID)
	buf = appendField(buf, cmd.inv.Contract)
	buf = appendField(buf, cmd.inv.Method)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cmd.inv.Args)))
	for _, a := range cmd.inv.Args {
		buf = appendBytes(buf, a)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cmd.writes)))
	for _, w := range cmd.writes {
		buf = appendField(buf, w.Key)
		buf = appendBytes(buf, w.Value)
	}
	return buf
}

func appendField[S string | []byte](buf []byte, s S) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendBytes is appendField for a byte slice whose nil-ness is kept.
func appendBytes(buf, b []byte) []byte {
	if b == nil {
		return binary.BigEndian.AppendUint32(buf, nilLen)
	}
	return appendField(buf, b)
}

// decodeShardCmd parses one entry's body; an empty list decodes as nil.
func decodeShardCmd(buf []byte) (shardCmd, bool) {
	r := reader{buf: buf, ok: true}
	var cmd shardCmd
	head := r.take(2)
	if head == nil || head[0] > byte(cmdFinish) || head[1] > 1 {
		return shardCmd{}, false
	}
	cmd.kind, cmd.commitP = cmdKind(head[0]), head[1] == 1
	cmd.txID = string(r.field())
	cmd.inv.Contract = string(r.field())
	cmd.inv.Method = string(r.field())
	if n := r.count(4); n > 0 {
		cmd.inv.Args = make([][]byte, n)
		for i := range cmd.inv.Args {
			cmd.inv.Args[i] = r.bytes()
		}
	}
	if n := r.count(8); n > 0 {
		cmd.writes = make([]txn.Write, n)
		for i := range cmd.writes {
			cmd.writes[i] = txn.Write{Key: string(r.field()), Value: r.bytes()}
		}
	}
	if !r.ok || len(r.buf) != 0 {
		return shardCmd{}, false
	}
	return cmd, true
}

// reader walks a body; the first short read clears ok, and every read
// after it returns nothing.
type reader struct {
	buf []byte
	ok  bool
}

// take returns the next n bytes, capped so an append through them cannot
// reach past them.
func (r *reader) take(n int) []byte {
	if !r.ok || n > len(r.buf) {
		r.ok = false
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *reader) u32() int {
	if b := r.take(4); b != nil {
		return int(binary.BigEndian.Uint32(b))
	}
	return 0
}

func (r *reader) field() []byte { return r.take(r.u32()) }

// bytes reads a byte slice whose nil-ness is kept.
func (r *reader) bytes() []byte {
	if n := r.u32(); n != nilLen {
		return r.take(n)
	}
	return nil
}

// count reads a list length, refusing one the rest of the body cannot
// hold at size bytes an element.
func (r *reader) count(size int) int {
	n := r.u32()
	if n > len(r.buf)/size {
		r.ok = false
		return 0
	}
	return n
}
