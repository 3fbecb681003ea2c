package lsm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// wal is a write-ahead log of Put/Delete records. Each record is
//
//	len u32 | crc u32 | flags u8 | klen u32 | key | value
//
// It is written as a database's log is and never read back (see the
// package doc); like a database, the engine prunes it, truncating it after
// each flush.
type wal struct {
	f *os.File
	w *bufio.Writer
	// hdr is append's scratch for a record's fixed-size prefix; the DB's
	// write lock serializes appends.
	hdr [8 + 1 + 4]byte // len | crc | flags | klen
}

// openWAL opens the log at path empty, truncating whatever an earlier DB
// left there.
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: open wal: %w", err)
	}
	return &wal{f: f, w: bufio.NewWriter(f)}, nil
}

// append writes one record straight into the buffered writer, piece by
// piece, checksumming the pieces as it goes: the writer's copy is the only
// one.
func (w *wal) append(key, value []byte, tomb bool) error {
	hdr := w.hdr[:]
	hdr[8] = 0
	if tomb {
		hdr[8] = flagTomb
	}
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(key)))
	crc := crc32.ChecksumIEEE(hdr[8:])
	crc = crc32.Update(crc, crc32.IEEETable, key)
	crc = crc32.Update(crc, crc32.IEEETable, value)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(1+4+len(key)+len(value)))
	binary.BigEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(key); err != nil {
		return err
	}
	_, err := w.w.Write(value)
	return err
}

// reset truncates the log once a flush has written its contents into a
// table.
func (w *wal) reset() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.w.Reset(w.f)
	return nil
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }
