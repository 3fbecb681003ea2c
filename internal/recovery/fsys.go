package recovery

import (
	"io"
	"os"
)

// fsys is every change a chain makes to its directory: the operations a
// power cut can lose. The os carries them out; the package's tests record
// them instead, to check what a cut after any one of them leaves behind.
// Reads — listing the directory, reading a file — go straight to the os,
// as they change nothing a cut could lose.
type fsys interface {
	mkdirAll(dir string) error
	// create opens a new, empty file for writing.
	create(path string) (syncFile, error)
	rename(from, to string) error
	remove(path string) error
	// syncDir makes dir's entries as they stand durable: a file created,
	// renamed or removed in dir survives a power cut only once this
	// returns.
	syncDir(dir string) error
}

// syncFile is a file being written: its bytes are durable once Sync
// returns.
type syncFile interface {
	io.Writer
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) create(path string) (syncFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) rename(from, to string) error { return os.Rename(from, to) }

func (osFS) remove(path string) error { return os.Remove(path) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
