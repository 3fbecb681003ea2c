package mvcc

import (
	"encoding/binary"
	"fmt"
)

// Checkpoint serialization: one opaque record per key carrying the key's
// complete transactional state — the full version chain AND any live
// Percolator lock. Checkpointing locks matters for crash recovery: a
// replica restored from a checkpoint taken mid-transaction must
// re-enter with the prewrite intact, so the replicated commit/rollback
// record that follows it in the raft log still applies cleanly.
//
// Record layout (big-endian):
//
//	nversions u32 | nversions × ( startTS u64 | commitTS u64 |
//	                              live u8 | live: vlen u32 | value ) |
//	hasLock u8 | hasLock: ( startTS u64 | plen u32 | primary |
//	                        del u8 | vlen u32 | value )
//
// The encoding is a pure function of the entry's content, so identical
// replicas produce byte-identical records — the property the
// crash-equivalence tests compare.

func appendValue(buf []byte, v []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

// encodeEntry serializes one keyEntry.
func encodeEntry(e *keyEntry) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(e.versions)))
	for _, v := range e.versions {
		buf = binary.BigEndian.AppendUint64(buf, v.startTS)
		buf = binary.BigEndian.AppendUint64(buf, v.commitTS)
		if v.value == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = appendValue(buf, v.value)
	}
	if !e.lock.held {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint64(buf, e.lock.startTS)
	buf = appendValue(buf, e.lock.primary)
	if e.lock.delete_ {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return appendValue(buf, e.lock.value)
}

// entryDecoder walks one encoded record with bounds checks.
type entryDecoder struct {
	buf []byte
	off int
}

func (d *entryDecoder) u8() (byte, error) {
	if d.off+1 > len(d.buf) {
		return 0, fmt.Errorf("mvcc: truncated entry at %d", d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *entryDecoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, fmt.Errorf("mvcc: truncated entry at %d", d.off)
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *entryDecoder) u64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, fmt.Errorf("mvcc: truncated entry at %d", d.off)
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *entryDecoder) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if d.off+int(n) > len(d.buf) || n > 1<<30 {
		return nil, fmt.Errorf("mvcc: implausible length %d at %d", n, d.off)
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += int(n)
	return out, nil
}

// decodeEntry parses one record back into a keyEntry.
func decodeEntry(buf []byte) (*keyEntry, error) {
	d := &entryDecoder{buf: buf}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if int(n) > len(buf) {
		return nil, fmt.Errorf("mvcc: implausible version count %d", n)
	}
	e := &keyEntry{}
	if n > 0 {
		e.versions = make([]version, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		var v version
		if v.startTS, err = d.u64(); err != nil {
			return nil, err
		}
		if v.commitTS, err = d.u64(); err != nil {
			return nil, err
		}
		live, err := d.u8()
		if err != nil {
			return nil, err
		}
		if live == 1 {
			if v.value, err = d.bytes(); err != nil {
				return nil, err
			}
		}
		e.versions = append(e.versions, v)
	}
	hasLock, err := d.u8()
	if err != nil {
		return nil, err
	}
	if hasLock == 1 {
		l := &e.lock
		l.held = true
		if l.startTS, err = d.u64(); err != nil {
			return nil, err
		}
		if l.primary, err = d.bytes(); err != nil {
			return nil, err
		}
		del, err := d.u8()
		if err != nil {
			return nil, err
		}
		l.delete_ = del == 1
		if l.value, err = d.bytes(); err != nil {
			return nil, err
		}
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("mvcc: %d trailing bytes in entry", len(buf)-d.off)
	}
	return e, nil
}

// DumpEntries streams every key's encoded transactional state. The
// iteration order is unspecified; callers that need determinism sort.
// Records are fresh allocations — safe to retain.
func (s *Store) DumpEntries(emit func(key string, entry []byte)) {
	s.keys.Range(func(k string, e *keyEntry) bool {
		emit(k, encodeEntry(e))
		return true
	})
}

// SetEntry installs an encoded record under key, replacing any existing
// state. Checkpoint restore uses it on an otherwise-idle store.
func (s *Store) SetEntry(key string, encoded []byte) error {
	e, err := decodeEntry(encoded)
	if err != nil {
		return fmt.Errorf("mvcc: restore %q: %w", key, err)
	}
	s.keys.Set(key, e)
	return nil
}
