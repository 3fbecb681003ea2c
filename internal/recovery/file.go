package recovery

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dichotomy/internal/txn"
)

// Checkpoint files come in two kinds with one layout. A delta carries the
// key/value/version triples dirtied since the checkpoint it applies on top
// of, plus tombstones for the keys deleted in between (all integers
// big-endian):
//
//	magic [6] | height u64 | base u64 | count u64 |
//	count × ( klen u32 | key | live u8 |
//	          live: vlen u32 | value | blockNum u64 | txNum u32 ) |
//	crc u32  (IEEE, over everything before it)
//
// A full snapshot is the same layout minus the two things only a delta
// needs: it applies on top of nothing, so its header has no base, and it
// records a deletion by the key's absence, so its records have no live
// flag. The file name repeats the header — ckpt-<height>.ckpt,
// delta-<height>-<base>.dckpt — so chain walking and pruning never open a
// file to discover structure.
var (
	ckptMagic  = [6]byte{'D', 'C', 'K', 'P', 'T', '1'}
	deltaMagic = [6]byte{'D', 'C', 'K', 'D', 'L', '1'}
)

func ckptPath(dir string, height uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016d.ckpt", height))
}

func deltaPath(dir string, height, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("delta-%016d-%016d.dckpt", height, base))
}

// chainFile is one checkpoint file's header, which its name states too.
type chainFile struct {
	height uint64
	base   uint64 // deltas only
	delta  bool
}

func (f chainFile) path(dir string) string {
	if f.delta {
		return deltaPath(dir, f.height, f.base)
	}
	return ckptPath(dir, f.height)
}

// entry is one record: a key's committed value and version, or a tombstone
// (live == false) for a key deleted since the delta's base.
type entry struct {
	key   string
	value []byte
	ver   txn.Version
	live  bool
}

// fileEncoder builds one checkpoint file in memory, header first; the
// record count is patched into the header when the file is committed.
type fileEncoder struct {
	file     chainFile
	buf      bytes.Buffer
	countOff int
	count    uint64
}

func newFileEncoder(f chainFile) *fileEncoder {
	w := &fileEncoder{file: f}
	var hdr []byte
	if f.delta {
		hdr = binary.BigEndian.AppendUint64(append(hdr, deltaMagic[:]...), f.height)
		hdr = binary.BigEndian.AppendUint64(hdr, f.base)
	} else {
		hdr = binary.BigEndian.AppendUint64(append(hdr, ckptMagic[:]...), f.height)
	}
	w.countOff = len(hdr)
	w.buf.Write(binary.BigEndian.AppendUint64(hdr, 0)) // the count, once commit knows it
	return w
}

// put appends one record, copying key and value. A full's entries are all
// live: whoever builds one has overlaid the tombstones away already.
func (w *fileEncoder) put(e entry) {
	var rec [12]byte
	w.count++
	binary.BigEndian.PutUint32(rec[:4], uint32(len(e.key)))
	w.buf.Write(rec[:4])
	w.buf.WriteString(e.key)
	if w.file.delta {
		if !e.live {
			w.buf.WriteByte(0)
			return
		}
		w.buf.WriteByte(1)
	}
	binary.BigEndian.PutUint32(rec[:4], uint32(len(e.value)))
	w.buf.Write(rec[:4])
	w.buf.Write(e.value)
	binary.BigEndian.PutUint64(rec[0:8], e.ver.BlockNum)
	binary.BigEndian.PutUint32(rec[8:12], e.ver.TxNum)
	w.buf.Write(rec[:12])
}

// commit writes the file into dir under the name its header gives it and
// returns its size. The bytes go to a temp file that is synced and then
// renamed, so a crash mid-write leaves at most a stray .tmp, never a torn
// file under the real name.
func (w *fileEncoder) commit(dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("recovery: mkdir: %w", err)
	}
	body := w.buf.Bytes()
	binary.BigEndian.PutUint64(body[w.countOff:], w.count)
	crc := crc32.NewIEEE()
	crc.Write(body)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc.Sum32())

	path := w.file.path(dir)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("recovery: create %s: %w", path, err)
	}
	// The trailer goes out on its own: appending it to a buffer that may
	// hold a whole store could double the buffer for four bytes.
	if _, err = f.Write(body); err == nil {
		_, err = f.Write(tail[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return int64(len(body) + len(tail)), nil
}

// readFile reads one checkpoint file of either kind and returns its
// header, its records and its size. A file that fails any check, the CRC
// included, returns no record, so a corrupt file can never leak one into a
// restore.
func readFile(path string) (chainFile, []entry, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return chainFile{}, nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return chainFile{}, nil, 0, err
	}
	hdr, entries, err := decodeFile(bufio.NewReaderSize(f, 1<<16), info.Size())
	if err != nil {
		return chainFile{}, nil, 0, fmt.Errorf("recovery: %s: %w", path, err)
	}
	return hdr, entries, info.Size(), nil
}

// decodeFile parses a checkpoint file of size bytes from r; the magic says
// which kind it is.
func decodeFile(r *bufio.Reader, size int64) (chainFile, []entry, error) {
	// The CRC must cover exactly the bytes before the trailer, so hash on
	// consumption rather than teeing the (read-ahead) buffered reader.
	crc := crc32.NewIEEE()
	readFull := func(buf []byte) error {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		crc.Write(buf)
		return nil
	}
	var word [12]byte // every fixed-size field is read through it
	readU64 := func() (uint64, error) {
		if err := readFull(word[:8]); err != nil {
			return 0, fmt.Errorf("short header: %w", err)
		}
		return binary.BigEndian.Uint64(word[:8]), nil
	}
	// A corrupt length must not trigger a huge allocation: nothing in a file
	// is longer than the file, and no key or value exceeds 1 GiB (the WAL's
	// bound too).
	readBytes := func(what string, i uint64) ([]byte, error) {
		if err := readFull(word[:4]); err != nil {
			return nil, fmt.Errorf("truncated at record %d: %w", i, err)
		}
		n := binary.BigEndian.Uint32(word[:4])
		if int64(n) > size || n > 1<<30 {
			return nil, fmt.Errorf("implausible %s length %d", what, n)
		}
		buf := make([]byte, n)
		if err := readFull(buf); err != nil {
			return nil, fmt.Errorf("truncated %s at record %d: %w", what, i, err)
		}
		return buf, nil
	}

	var hdr chainFile
	var magic [6]byte
	if err := readFull(magic[:]); err != nil {
		return hdr, nil, fmt.Errorf("short header: %w", err)
	}
	if magic != ckptMagic && magic != deltaMagic {
		return hdr, nil, errors.New("bad magic")
	}
	hdr.delta = magic == deltaMagic
	var err error
	if hdr.height, err = readU64(); err != nil {
		return hdr, nil, err
	}
	// The least a record takes bounds how many a file can hold: key length,
	// value length and version in a full; key length and live flag in a
	// delta, whose tombstones carry nothing else.
	minRecord := uint64(4 + 4 + 12)
	if hdr.delta {
		minRecord = 4 + 1
		if hdr.base, err = readU64(); err != nil {
			return hdr, nil, err
		}
	}
	count, err := readU64()
	if err != nil {
		return hdr, nil, err
	}
	if count > uint64(size)/minRecord {
		return hdr, nil, fmt.Errorf("implausible record count %d", count)
	}

	var entries []entry
	for i := uint64(0); i < count; i++ {
		key, err := readBytes("key", i)
		if err != nil {
			return hdr, nil, err
		}
		e := entry{key: string(key)}
		if hdr.delta {
			if err := readFull(word[:1]); err != nil {
				return hdr, nil, fmt.Errorf("truncated flag at record %d: %w", i, err)
			}
			// The writer emits 0 and 1 only, and rewriting an accepted file
			// must reproduce it, so nothing else is accepted.
			if word[0] > 1 {
				return hdr, nil, fmt.Errorf("bad live flag %d at record %d", word[0], i)
			}
			if word[0] == 0 {
				entries = append(entries, e)
				continue
			}
		}
		e.live = true
		if e.value, err = readBytes("value", i); err != nil {
			return hdr, nil, err
		}
		if err := readFull(word[:]); err != nil {
			return hdr, nil, fmt.Errorf("truncated version at record %d: %w", i, err)
		}
		e.ver = txn.Version{
			BlockNum: binary.BigEndian.Uint64(word[0:8]),
			TxNum:    binary.BigEndian.Uint32(word[8:12]),
		}
		entries = append(entries, e)
	}
	// The trailer sits outside the checksummed region.
	want := crc.Sum32()
	if _, err := io.ReadFull(r, word[:4]); err != nil {
		return hdr, nil, fmt.Errorf("missing crc: %w", err)
	}
	if binary.BigEndian.Uint32(word[:4]) != want {
		return hdr, nil, errors.New("crc mismatch")
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return hdr, nil, errors.New("trailing bytes")
	}
	return hdr, entries, nil
}

// listChain lists every checkpoint file in dir — fulls and deltas —
// sorted by height (a full sorts before a delta at the same height). It is
// the one place checkpoint file names are parsed.
func listChain(dir string) ([]chainFile, error) {
	names, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []chainFile
	for _, e := range names {
		name := e.Name()
		var h, b uint64
		// Sscanf does not anchor the end of the name, so a stray .tmp
		// left by a crash mid-write ("ckpt-…​.ckpt.tmp") would still
		// match; the suffix guards keep such phantoms out of the chain.
		if n, err := fmt.Sscanf(name, "delta-%d-%d.dckpt", &h, &b); n == 2 && err == nil && strings.HasSuffix(name, ".dckpt") {
			files = append(files, chainFile{height: h, base: b, delta: true})
		} else if n, err := fmt.Sscanf(name, "ckpt-%d.ckpt", &h); n == 1 && err == nil && strings.HasSuffix(name, ".ckpt") {
			files = append(files, chainFile{height: h})
		}
	}
	slices.SortFunc(files, func(a, b chainFile) int {
		if a.height != b.height {
			if a.height < b.height {
				return -1
			}
			return 1
		}
		if a.delta == b.delta {
			return 0
		}
		if !a.delta {
			return -1
		}
		return 1
	})
	return files, nil
}
