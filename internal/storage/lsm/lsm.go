// Package lsm implements a log-structured merge tree storage engine — the
// stand-in for LevelDB/RocksDB, which back Quorum, Fabric, and TiKV in the
// paper. It provides a write-ahead log, a skiplist memtable, immutable
// SSTables with sparse indexes and Bloom filters, and tiered compaction.
//
// With Options.Dir set, every write goes to the WAL and every table to its
// own file, as a database's would: those disk writes are the modelled cost,
// and nothing ever reads them back. A replica restarts from its checkpoint
// chain (internal/recovery), the one durable format, so Open over an
// earlier DB's directory starts empty. With Dir empty the engine is purely
// in-memory (tables are still built and compacted — the CPU cost structure
// is identical) which is what the benchmark harness uses.
package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dichotomy/internal/storage"
	"dichotomy/internal/storage/skiplist"
)

// Options configures a DB.
type Options struct {
	// Dir is the storage directory. Empty means in-memory operation: no
	// WAL, tables held as byte slices.
	Dir string
	// MemtableBytes is the flush threshold. Default 4 MiB.
	MemtableBytes int64
	// L0Limit is the number of level-0 tables that triggers compaction
	// into level 1. Default 4.
	L0Limit int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MemtableBytes <= 0 {
		out.MemtableBytes = 4 << 20
	}
	if out.L0Limit <= 0 {
		out.L0Limit = 4
	}
	return out
}

// DB is an LSM-tree storage engine. Safe for concurrent use.
type DB struct {
	opt Options

	mu     sync.RWMutex
	mem    *skiplist.List
	l0     []*sstable // newest first
	l1     *sstable   // fully-compacted base level; may be nil
	wal    *wal
	seq    int
	closed bool
}

var _ storage.Engine = (*DB)(nil)
var _ storage.Batch = (*DB)(nil)

// Open creates an empty DB. Over a directory an earlier DB wrote it still
// starts empty: it truncates the stale WAL and reads no table back.
func Open(opt Options) (*DB, error) {
	db := &DB{opt: opt.withDefaults(), mem: skiplist.New()}
	if db.opt.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(db.opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: mkdir: %w", err)
	}
	w, err := openWAL(walPath(db.opt.Dir))
	if err != nil {
		return nil, err
	}
	db.wal = w
	return db, nil
}

// Get implements storage.Engine. It consults the memtable, then level-0
// tables newest-first, then the base level; the first verdict (value or
// tombstone) wins.
func (d *DB) Get(key []byte) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, storage.ErrClosed
	}
	if v, tomb, found := d.mem.GetEntry(key); found {
		if tomb {
			return nil, storage.ErrNotFound
		}
		return v, nil
	}
	for _, t := range d.l0 {
		if v, tomb, found := t.get(key); found {
			if tomb {
				return nil, storage.ErrNotFound
			}
			return v, nil
		}
	}
	if d.l1 != nil {
		if v, tomb, found := d.l1.get(key); found {
			if tomb {
				return nil, storage.ErrNotFound
			}
			return v, nil
		}
	}
	return nil, storage.ErrNotFound
}

// Put implements storage.Engine.
func (d *DB) Put(key, value []byte) error {
	if value == nil {
		value = []byte{}
	}
	return d.write(key, value, false)
}

// Delete implements storage.Engine.
func (d *DB) Delete(key []byte) error {
	return d.write(key, nil, true)
}

func (d *DB) write(key, value []byte, tomb bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return storage.ErrClosed
	}
	if d.wal != nil {
		if err := d.wal.append(key, value, tomb); err != nil {
			return fmt.Errorf("lsm: wal append: %w", err)
		}
	}
	if tomb {
		d.mem.Delete(key)
	} else {
		d.mem.Put(key, value)
	}
	if d.mem.Bytes() >= d.opt.MemtableBytes {
		return d.flushLocked()
	}
	return nil
}

// ApplyBatch implements storage.Batch: all writes land under one lock
// acquisition, so readers see either none or all of them relative to the
// flush boundary.
func (d *DB) ApplyBatch(writes []storage.Write) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return storage.ErrClosed
	}
	for _, w := range writes {
		tomb := w.Value == nil
		if d.wal != nil {
			if err := d.wal.append(w.Key, w.Value, tomb); err != nil {
				return err
			}
		}
		if tomb {
			d.mem.Delete(w.Key)
		} else {
			d.mem.Put(w.Key, w.Value)
		}
	}
	if d.mem.Bytes() >= d.opt.MemtableBytes {
		return d.flushLocked()
	}
	return nil
}

// Flush forces the memtable into a level-0 table. Exposed for tests and for
// the storage-cost experiment, which measures on-disk layout.
func (d *DB) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return storage.ErrClosed
	}
	return d.flushLocked()
}

func (d *DB) flushLocked() error {
	if d.mem.Len() == 0 && !hasTombs(d.mem) {
		return nil
	}
	var entries []entry
	it := d.mem.NewIterator(nil)
	for it.Next() {
		e := it.Item()
		entries = append(entries, entry{key: e.Key, value: e.Value, tomb: e.Tomb})
	}
	if len(entries) == 0 {
		return nil
	}
	raw := buildSSTable(entries)
	t, err := openSSTable(raw)
	if err != nil {
		return fmt.Errorf("lsm: flush: %w", err)
	}
	t.seq = d.seq
	if d.opt.Dir != "" {
		if err := d.writeTable(raw, d.seq); err != nil {
			return err
		}
	}
	d.seq++
	d.l0 = append([]*sstable{t}, d.l0...)
	d.mem = skiplist.New()
	if d.wal != nil {
		if err := d.wal.reset(); err != nil {
			return err
		}
	}
	if len(d.l0) >= d.opt.L0Limit {
		return d.compactLocked()
	}
	return nil
}

func hasTombs(l *skiplist.List) bool {
	it := l.NewIterator(nil)
	for it.Next() {
		if it.Item().Tomb {
			return true
		}
	}
	return false
}

// Compact merges every table into a single base-level table, dropping
// shadowed versions and, at the base level, tombstones.
func (d *DB) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return storage.ErrClosed
	}
	return d.compactLocked()
}

func (d *DB) compactLocked() error {
	srcs := d.tableSources(nil)
	if len(srcs) == 0 {
		return nil
	}
	// The base level has nothing underneath it, so the tombstones the merge
	// hides can drop.
	var live []entry
	for it := newMergeIterator(srcs); it.Next(); {
		live = append(live, entry{key: it.Key(), value: it.Value()})
	}
	if len(live) == 0 {
		d.removeObsoleteFiles()
		d.l0 = nil
		d.l1 = nil
		return nil
	}
	raw := buildSSTable(live)
	t, err := openSSTable(raw)
	if err != nil {
		return fmt.Errorf("lsm: compact: %w", err)
	}
	t.seq = d.seq
	if d.opt.Dir != "" {
		if err := d.writeTable(raw, d.seq); err != nil {
			return err
		}
	}
	d.seq++
	d.removeObsoleteFiles()
	d.l0 = nil
	d.l1 = t
	return nil
}

// NewIterator implements storage.Engine. The iterator merges the memtable
// and all tables, hiding tombstones. It holds a snapshot of the table list;
// memtable mutations during iteration may or may not be observed.
func (d *DB) NewIterator(start []byte) storage.Iterator {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.newIteratorLocked(start)
}

func (d *DB) newIteratorLocked(start []byte) storage.Iterator {
	srcs := append([]entrySource{&memSource{it: d.mem.NewIterator(start)}}, d.tableSources(start)...)
	return newMergeIterator(srcs)
}

// tableSources returns a cursor from start over every table, newest first.
func (d *DB) tableSources(start []byte) []entrySource {
	srcs := make([]entrySource, 0, len(d.l0)+1)
	for _, t := range d.l0 {
		srcs = append(srcs, &tblSource{it: t.iterate(start)})
	}
	if d.l1 != nil {
		srcs = append(srcs, &tblSource{it: d.l1.iterate(start)})
	}
	return srcs
}

// ApproxSize implements storage.Engine.
func (d *DB) ApproxSize() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	size := d.mem.Bytes()
	for _, t := range d.l0 {
		size += int64(len(t.data))
	}
	if d.l1 != nil {
		size += int64(len(d.l1.data))
	}
	return size
}

// Len implements storage.Engine. It is exact only after Compact; between
// compactions shadowed versions in upper levels are estimated away by a
// full merge count, which is acceptable for its diagnostic role.
func (d *DB) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	it := d.newIteratorLocked(nil)
	n := 0
	for it.Next() {
		n++
	}
	return n
}

// Close implements storage.Engine.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.wal != nil {
		return d.wal.close()
	}
	return nil
}

// --- disk writes ---

func tablePath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("sst-%08d.sst", seq))
}

func (d *DB) writeTable(raw []byte, seq int) error {
	path := tablePath(d.opt.Dir, seq)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// removeObsoleteFiles deletes the files of every table currently in the
// tree; callers invoke it right before replacing the tree with a compacted
// table.
func (d *DB) removeObsoleteFiles() {
	if d.opt.Dir == "" {
		return
	}
	for _, t := range d.l0 {
		os.Remove(tablePath(d.opt.Dir, t.seq))
	}
	if d.l1 != nil {
		os.Remove(tablePath(d.opt.Dir, d.l1.seq))
	}
}
