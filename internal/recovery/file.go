package recovery

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// record count is patched into the header when the file is committed. Its
// buffer outlives the file: reset starts the next one in the same memory.
type fileEncoder struct {
	// fs is what commit writes through; nil is the os.
	fs fsys
	// dirReady says a commit has made sure the directory exists and that
	// its own name is durable in its parent. Any failed commit clears it,
	// so an encoder commits into one directory only.
	dirReady bool
	file     chainFile
	buf      []byte
	countOff int
	count    uint64
}

// files is the file system the encoder writes through.
func (w *fileEncoder) files() fsys {
	if w.fs == nil {
		return osFS{}
	}
	return w.fs
}

func newFileEncoder(f chainFile) *fileEncoder {
	w := new(fileEncoder)
	w.reset(f)
	return w
}

// reset starts file f over whatever w encoded before, keeping the buffer's
// capacity: every byte the previous file wrote is overwritten or cut off.
func (w *fileEncoder) reset(f chainFile) {
	magic := ckptMagic
	if f.delta {
		magic = deltaMagic
	}
	w.file, w.count = f, 0
	w.buf = binary.BigEndian.AppendUint64(append(w.buf[:0], magic[:]...), f.height)
	if f.delta {
		w.buf = binary.BigEndian.AppendUint64(w.buf, f.base)
	}
	w.countOff = len(w.buf)
	w.buf = binary.BigEndian.AppendUint64(w.buf, 0) // the count, once commit knows it
}

// put appends one record, copying key and value. A full's entries are all
// live: whoever builds one has overlaid the tombstones away already.
func (w *fileEncoder) put(e entry) {
	w.count++
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(e.key)))
	w.buf = append(w.buf, e.key...)
	if w.file.delta {
		if !e.live {
			w.buf = append(w.buf, 0)
			return
		}
		w.buf = append(w.buf, 1)
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(e.value)))
	w.buf = append(w.buf, e.value...)
	w.buf = binary.BigEndian.AppendUint64(w.buf, e.ver.BlockNum)
	w.buf = binary.BigEndian.AppendUint32(w.buf, e.ver.TxNum)
}

// commit writes the file into dir under the name its header gives it and
// returns its size. The bytes go to a temp file that is synced and then
// renamed, so a crash mid-write leaves at most a stray .tmp, never a torn
// file under the real name; and dir is synced after the rename, so a file
// whose commit returned survives a power cut. The first commit, and the
// first after a failed one, also creates dir if it is missing and syncs
// its parent, which holds dir's own name.
func (w *fileEncoder) commit(dir string) (int64, error) {
	fs := w.files()
	if !w.dirReady {
		if err := fs.mkdirAll(dir); err != nil {
			return 0, fmt.Errorf("recovery: mkdir: %w", err)
		}
	}
	body := w.buf
	binary.BigEndian.PutUint64(body[w.countOff:], w.count)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))

	path := w.file.path(dir)
	written := path + ".tmp" // what a failure from here on removes
	f, err := fs.create(written)
	if err != nil {
		w.dirReady = false
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
		if err = fs.rename(written, path); err == nil {
			written = path
		}
	}
	if err == nil {
		err = fs.syncDir(dir)
	}
	if err == nil && !w.dirReady {
		err = fs.syncDir(filepath.Dir(dir))
	}
	w.dirReady = err == nil
	if err != nil {
		// A file under its real name whose rename may not be durable is
		// removed too: the write that covers this one replaces it.
		fs.remove(written)
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

// parseName parses a checkpoint file name, the one place one is parsed.
// Anything else — a stray .tmp left by a crash mid-write included — is not
// a chain file.
func parseName(name string) (chainFile, bool) {
	if h, ok := strings.CutPrefix(name, "ckpt-"); ok {
		h, ok = strings.CutSuffix(h, ".ckpt")
		height, err := strconv.ParseUint(h, 10, 64)
		return chainFile{height: height}, ok && err == nil
	}
	hb, prefix := strings.CutPrefix(name, "delta-")
	hb, suffix := strings.CutSuffix(hb, ".dckpt")
	h, b, cut := strings.Cut(hb, "-")
	height, err := strconv.ParseUint(h, 10, 64)
	base, berr := strconv.ParseUint(b, 10, 64)
	return chainFile{height: height, base: base, delta: true}, prefix && suffix && cut && err == nil && berr == nil
}

// listChain lists every checkpoint file in dir — fulls and deltas —
// sorted by height (a full sorts before a delta at the same height).
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
		if f, ok := parseName(e.Name()); ok {
			files = append(files, f)
		}
	}
	slices.SortFunc(files, compareFiles)
	return files, nil
}

// compareFiles orders checkpoint files by height, a full before a delta at
// the same height, and deltas at one height by base.
func compareFiles(a, b chainFile) int {
	if a.delta != b.delta && a.height == b.height {
		if a.delta {
			return 1
		}
		return -1
	}
	return cmp.Or(cmp.Compare(a.height, b.height), cmp.Compare(a.base, b.base))
}
