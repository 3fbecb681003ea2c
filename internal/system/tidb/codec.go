package tidb

import (
	"encoding/binary"

	"dichotomy/internal/consensus"
)

// Region-command wire codec. Commands are serialized INTO the raft log
// entry, as every log in the repo carries its commands — the ledger
// side's blocks included: a self-contained log costs one encode per
// command and buys the whole recovery story — the leader's
// re-replication alone rebuilds any replica.
//
// Entry bytes are immutable once proposed: raft hands the same slice to
// every in-process replica, and decodeRegionCmd returns a value whose key,
// primary and value all ALIAS it instead of copying them out. That is safe
// because nothing downstream mutates a stored slice — mvcc looks the key
// up by its bytes and copies it into a string only when the key first
// enters the store, keeps primary and value in the lock, moves the value
// into a version on commit, and Store.Get hands that same slice to readers
// uncopied. Code that wants to change a value writes a new one through a
// new command.
//
// The entry opens with the consensus.Header bytes the group frames it
// with; the body after them is (big-endian):
//
//	kind u8 | del u8 | startTS u64 | commitTS u64 |
//	klen u32 | key | plen u32 | primary | hasValue u8 | [vlen u32 | value]

// regionCmdFixed is the body's fixed-width prefix: kind, del, startTS,
// commitTS.
const regionCmdFixed = 1 + 1 + 8 + 8

// encodeRegionCmd returns cmd's log entry, its header left for
// system.Group.Propose to fill in.
func encodeRegionCmd[K string | []byte](cmd *regionCmd[K]) []byte {
	// Header, fixed prefix, klen, plen, hasValue, vlen: exact, so no append
	// grows.
	buf := make([]byte, consensus.Header, consensus.Header+regionCmdFixed+4+4+1+4+len(cmd.key)+len(cmd.primary)+len(cmd.value))
	buf = append(buf, byte(cmd.kind))
	if cmd.del {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint64(buf, cmd.startTS)
	buf = binary.BigEndian.AppendUint64(buf, cmd.commitTS)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cmd.key)))
	buf = append(buf, cmd.key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cmd.primary)))
	buf = append(buf, cmd.primary...)
	if cmd.value == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cmd.value)))
	return append(buf, cmd.value...)
}

// decodeRegionCmd parses one entry's body without allocating: key, primary
// and value alias buf (see the header). Any kind byte is accepted; del and
// hasValue are set only by the byte 1.
func decodeRegionCmd(buf []byte) (cmd regionCmd[[]byte], ok bool) {
	if len(buf) < regionCmdFixed+4 {
		return cmd, false
	}
	cmd.kind = cmdKind(buf[0])
	cmd.del = buf[1] == 1
	cmd.startTS = binary.BigEndian.Uint64(buf[2:])
	cmd.commitTS = binary.BigEndian.Uint64(buf[10:])
	klen := int(binary.BigEndian.Uint32(buf[regionCmdFixed:]))
	off := regionCmdFixed + 4 // start of key
	if klen > len(buf)-off-4 {
		return regionCmd[[]byte]{}, false
	}
	plen := int(binary.BigEndian.Uint32(buf[off+klen:]))
	if plen > len(buf)-off-klen-4 {
		return regionCmd[[]byte]{}, false
	}
	// Each capped, so an append through the alias cannot reach past it.
	cmd.key = buf[off : off+klen : off+klen]
	off += klen + 4
	cmd.primary = buf[off : off+plen : off+plen]
	off += plen
	if off == len(buf) {
		return regionCmd[[]byte]{}, false // no hasValue byte
	}
	hasValue := buf[off]
	off++
	if hasValue == 1 {
		if len(buf)-off < 4 {
			return regionCmd[[]byte]{}, false
		}
		vlen := int(binary.BigEndian.Uint32(buf[off:]))
		off += 4
		if vlen > len(buf)-off {
			return regionCmd[[]byte]{}, false
		}
		cmd.value = buf[off : off+vlen : off+vlen]
		off += vlen
	}
	return cmd, off == len(buf)
}
