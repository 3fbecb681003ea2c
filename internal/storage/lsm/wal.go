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

func (w *wal) append(key, value []byte, tomb bool) error {
	payload := make([]byte, 1+4+len(key)+len(value))
	if tomb {
		payload[0] = flagTomb
	}
	binary.BigEndian.PutUint32(payload[1:5], uint32(len(key)))
	copy(payload[5:], key)
	copy(payload[5+len(key):], value)

	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
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
