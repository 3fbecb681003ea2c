package spanner

import (
	"encoding/binary"
	"errors"

	"dichotomy/internal/consensus"
	"dichotomy/internal/txn"
)

// Shard-command wire codec. Commands ride inside the raft log entry, as
// every log in the repo carries its commands: a self-contained log costs
// one copy per entry and lets the leader's re-replication rebuild any
// replica from scratch.
//
// The entry opens with the consensus.Header bytes the group frames it
// with; the body after them is (big-endian):
//
//	phase u8 | commit u8 | tlen u32 | txID |
//	nwrites u32 | nwrites × (klen u32 | key | hasValue u8 | [vlen u32 | value])

// encodeShardCmd returns cmd's log entry, its header left for
// system.Group.Propose to fill in.
func encodeShardCmd(cmd *shardCmd) []byte {
	buf := make([]byte, consensus.Header, consensus.Header+10+len(cmd.txID))
	buf = append(buf, byte(cmd.phase))
	if cmd.commit {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(cmd.txID)))
	buf = append(buf, cmd.txID...)
	return appendWrites(buf, cmd.writes)
}

func decodeShardCmd(buf []byte) (*shardCmd, bool) {
	off := 0
	cmd := &shardCmd{}
	p, ok := readU8(buf, &off)
	if !ok {
		return nil, false
	}
	cmd.phase = phase(p)
	commit, ok := readU8(buf, &off)
	if !ok {
		return nil, false
	}
	cmd.commit = commit == 1
	tx, ok := readBytes(buf, &off)
	if !ok {
		return nil, false
	}
	cmd.txID = string(tx)
	if cmd.writes, ok = readWrites(buf, &off); !ok {
		return nil, false
	}
	return cmd, off == len(buf)
}

// appendWrites/decodeWrites serialize a write set; the same encoding is
// the checkpoint record for prepared-but-undecided 2PC write sets, so a
// recovered replica can still apply a post-checkpoint phaseFinish.
func appendWrites(buf []byte, writes []txn.Write) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(writes)))
	for _, w := range writes {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.Key)))
		buf = append(buf, w.Key...)
		if w.Value == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(w.Value)))
		buf = append(buf, w.Value...)
	}
	return buf
}

func encodeWrites(writes []txn.Write) []byte {
	return appendWrites(nil, writes)
}

func decodeWrites(buf []byte) ([]txn.Write, bool) {
	off := 0
	w, ok := readWrites(buf, &off)
	if !ok || off != len(buf) {
		return nil, false
	}
	return w, true
}

func readWrites(buf []byte, off *int) ([]txn.Write, bool) {
	n, ok := readU32(buf, off)
	// A write takes at least 5 bytes (key length, hasValue), so a count the
	// rest of the buffer cannot hold is corrupt; refuse it before it sizes
	// an allocation.
	if !ok || int64(n) > int64(len(buf)-*off)/5 {
		return nil, false
	}
	writes := make([]txn.Write, 0, n)
	for i := uint32(0); i < n; i++ {
		key, ok := readBytes(buf, off)
		if !ok {
			return nil, false
		}
		w := txn.Write{Key: string(key)}
		hasValue, ok := readU8(buf, off)
		if !ok {
			return nil, false
		}
		if hasValue == 1 {
			v, ok := readBytes(buf, off)
			if !ok {
				return nil, false
			}
			// Never nil, even when empty: nil is how a Write spells delete.
			w.Value = make([]byte, len(v))
			copy(w.Value, v)
		}
		writes = append(writes, w)
	}
	return writes, true
}

func readU8(buf []byte, off *int) (byte, bool) {
	if *off+1 > len(buf) {
		return 0, false
	}
	b := buf[*off]
	*off++
	return b, true
}

func readU32(buf []byte, off *int) (uint32, bool) {
	if *off+4 > len(buf) {
		return 0, false
	}
	v := binary.BigEndian.Uint32(buf[*off:])
	*off += 4
	return v, true
}

func readBytes(buf []byte, off *int) ([]byte, bool) {
	n, ok := readU32(buf, off)
	if !ok || *off+int(n) > len(buf) {
		return nil, false
	}
	b := buf[*off : *off+int(n)]
	*off += int(n)
	return b, true
}

// Checkpoint record layout for a shardState: committed values carry an
// 's' key prefix, prepared write sets a 'p' prefix. Prepared sets must
// survive a crash — a phaseFinish replicated after the checkpoint height
// applies against the restored prepared map.

var errBadRecord = errors.New("spanner: bad checkpoint record")

// dump emits the complete shardState content in checkpoint-record form
// (the shard group's Dump).
func (st *shardState) dump(emit func(key string, value []byte)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for k, v := range st.state {
		emit("s"+k, v)
	}
	for txID, writes := range st.prepared {
		emit("p"+txID, encodeWrites(writes))
	}
}

// restoreRecord routes one checkpoint record back into the maps (the shard
// group's Restore).
func (st *shardState) restoreRecord(key string, value []byte) error {
	if len(key) == 0 {
		return errBadRecord
	}
	switch key[0] {
	case 's':
		st.state[key[1:]] = append([]byte(nil), value...)
		return nil
	case 'p':
		writes, ok := decodeWrites(value)
		if !ok {
			return errBadRecord
		}
		st.prepared[key[1:]] = writes
		return nil
	default:
		return errBadRecord
	}
}
