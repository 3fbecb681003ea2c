package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dichotomy/internal/state"
	"dichotomy/internal/txn"
)

// A checkpoint chain is one full snapshot plus the deltas that link onto
// it, each naming the checkpoint it applies on top of. This file is the
// chain itself — what gets written next, how a chain is loaded back, what
// may be pruned — under the two writers the package doc describes.

// chainEntry is one key's state in a materialized chain: the value and
// version the chain's newest covering file assigned it.
type chainEntry struct {
	value []byte
	ver   txn.Version
}

// overlay applies one file's entries over a materialized chain state: live
// entries replace, tombstones delete.
func overlay(m map[string]chainEntry, entries []entry) {
	for _, e := range entries {
		if e.live {
			m[e.key] = chainEntry{value: e.value, ver: e.ver}
		} else {
			delete(m, e.key)
		}
	}
}

// sortedKeys returns a materialized chain state's keys in order. Whatever
// is built from a chain — a restored store, a folded full — is built in
// this order, so the same chain always yields identical bytes.
func sortedKeys(m map[string]chainEntry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// stepKind is what a chain takes next. The kinds are ordered: one that
// starts a chain or cuts it short comes before the delta that extends it.
type stepKind int

const (
	// stepFull starts a chain with a full snapshot.
	stepFull stepKind = iota
	// stepFold cuts a chain short, after FullEvery-1 deltas, with a full
	// snapshot again.
	stepFold
	// stepDelta extends the chain by the changes since base.
	stepDelta
)

// step is one planned checkpoint.
type step struct {
	kind         stepKind
	height, base uint64
}

// chain is one directory's checkpoint chain as its writer sees it. It owns
// the decision what to write next, the counters behind it, the content the
// chain materializes and pruning; its writer owns where the records come
// from and which goroutine does the work.
type chain struct {
	opts Options // defaults applied; read-only once the writer runs
	// tip is the height of the newest checkpoint taken, the base the next
	// delta links to; until the chain is seeded there is none, and the next
	// checkpoint is a chain-seeding full.
	tip       uint64
	seeded    bool
	sinceFull int
	// content is the complete state at the newest checkpoint the writer has
	// taken, so a fold is written from memory, never read back from disk.
	// With enc, the buffer every file is encoded in, it belongs to the
	// goroutine that writes files: one copy of the state and the largest
	// file, kept for the writer's lifetime. enc.fs is the file system every
	// change to the directory goes through.
	content map[string]chainEntry
	enc     fileEncoder
}

// sweep removes the temp files a crash mid-write left in the chain's
// directory. listChain skips them, so nothing else ever would. A writer
// sweeps as it opens the chain, before it has a write of its own in
// flight.
func (c *chain) sweep() {
	names, _ := os.ReadDir(c.opts.Dir)
	for _, e := range names {
		if name, ok := strings.CutSuffix(e.Name(), ".tmp"); ok {
			if _, ok := parseName(name); ok {
				c.enc.files().remove(filepath.Join(c.opts.Dir, e.Name()))
			}
		}
	}
}

// due reports whether height is a full interval past the chain's tip.
func (c *chain) due(height uint64) bool { return height >= c.tip+c.opts.Interval }

// plan says what a checkpoint at height would be. It changes nothing:
// advance commits the step once its writer knows it is taken.
func (c *chain) plan(height uint64) step {
	s := step{kind: stepDelta, height: height, base: c.tip}
	switch {
	case c.opts.Mode == ModeFull || !c.seeded:
		s.kind = stepFull
	case c.sinceFull+1 >= c.opts.FullEvery:
		s.kind = stepFold
	}
	return s
}

func (c *chain) advance(s step) {
	c.tip, c.seeded = s.height, true
	if s.kind == stepDelta {
		c.sinceFull++
	} else {
		c.sinceFull = 0
	}
}

// take brings content to s.height for a writer that holds only the entries
// changed since s.base. On a step that starts a chain they are the whole
// state — whatever the writer tracks changes of, it has tracked from empty
// — and replace content; on anything else they overlay it.
func (c *chain) take(s step, changed []entry) {
	if s.kind == stepFull {
		c.content = make(map[string]chainEntry, len(changed))
	}
	overlay(c.content, changed)
}

// recordSource puts one file's records, in file order.
type recordSource func(put func(entry))

// changedRecords is a delta's source: the entries changed since its base.
func changedRecords(changed []entry) recordSource {
	return func(put func(entry)) {
		for _, e := range changed {
			put(e)
		}
	}
}

// stateRecords is a full's source when the complete state is a map.
func stateRecords(m map[string]chainEntry) recordSource {
	return func(put func(entry)) {
		for _, k := range sortedKeys(m) {
			e := m[k]
			put(entry{key: k, value: e.value, ver: e.ver, live: true})
		}
	}
}

// write puts a planned step on disk — the entries changed since s.base for
// a delta, the complete state at s.height for anything else — and prunes
// what the new file makes unnecessary. It returns the file's size. Every
// file is encoded in enc's one buffer, so once that has grown to the
// chain's largest file, encoding allocates nothing.
func (c *chain) write(s step, records recordSource) (int64, error) {
	f := chainFile{height: s.height}
	if s.kind == stepDelta {
		f.base, f.delta = s.base, true
	}
	c.enc.reset(f)
	records(c.enc.put)
	n, err := c.enc.commit(c.opts.Dir)
	if err != nil {
		return 0, err
	}
	pruneChains(c.enc.files(), c.opts.Dir, c.opts.Keep)
	return n, nil
}

// loadChain materializes the newest intact checkpoint chain with tip ≤
// upto (0 means no limit): the newest loadable full snapshot plus every
// delta that links onto it, applied in chain order. A corrupt or
// truncated delta ends the chain there — the intact prefix still
// restores, and replay covers the difference; a corrupt full falls back
// to the next older full's chain. Returns the materialized state, the
// chain's tip height, and the total file bytes read. With no full
// snapshot at all it returns (nil, 0, 0, nil); with fulls present but
// none intact, an error.
func loadChain(dir string, upto uint64) (map[string]chainEntry, uint64, int64, error) {
	if upto == 0 {
		upto = ^uint64(0)
	}
	files, err := listChain(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	var fulls []chainFile
	deltasByBase := make(map[uint64][]chainFile)
	for _, f := range files {
		if f.height > upto {
			continue
		}
		if f.delta {
			deltasByBase[f.base] = append(deltasByBase[f.base], f)
		} else {
			fulls = append(fulls, f)
		}
	}

	var lastErr error
	for i := len(fulls) - 1; i >= 0; i-- {
		m := make(map[string]chainEntry)
		var tip uint64
		var bytesRead int64
		// extend applies one file on top of the chain so far; the file must
		// be what its name says it is.
		extend := func(f chainFile) bool {
			hdr, entries, size, err := readFile(f.path(dir))
			if err == nil && hdr != f {
				err = fmt.Errorf("recovery: %s: header says %+v", f.path(dir), hdr)
			}
			if err != nil {
				lastErr = err
				return false
			}
			overlay(m, entries)
			tip, bytesRead = f.height, bytesRead+size
			return true
		}
		if !extend(fulls[i]) {
			continue // corrupt full: fall back to the previous chain
		}
		for {
			next, ok := nextDelta(deltasByBase[tip], tip)
			// A corrupt mid-chain delta keeps the intact prefix. The
			// restore lands at a lower height and replay covers the rest,
			// exactly like falling back to an older checkpoint.
			if !ok || !extend(next) {
				return m, tip, bytesRead, nil
			}
		}
	}
	if lastErr != nil {
		return nil, 0, 0, fmt.Errorf("recovery: no intact checkpoint (newest failure: %w)", lastErr)
	}
	return nil, 0, 0, nil
}

// nextDelta picks the chain's successor among the deltas based at tip:
// the lowest height above tip. Stale files from a pre-crash incarnation
// can leave several deltas with the same base; the lowest is the
// immediate successor (and replay determinism makes the contents of
// same-height incarnations value-identical anyway).
func nextDelta(candidates []chainFile, tip uint64) (chainFile, bool) {
	var best chainFile
	found := false
	for _, f := range candidates {
		if f.height <= tip {
			continue
		}
		if !found || f.height < best.height {
			best, found = f, true
		}
	}
	return best, found
}

// Restore loads the newest intact checkpoint chain in dir with tip ≤
// maxHeight (0 means no limit) into st, which must be empty, and returns
// the chain's tip height and the total checkpoint bytes read. Corrupt
// fulls fall back to the previous chain; a corrupt mid-chain delta
// truncates the chain to its intact prefix. With no usable checkpoint it
// returns height 0 and a nil error — recovery then replays from genesis.
func Restore(st *state.Store, dir string, maxHeight uint64) (uint64, int64, error) {
	m, tip, bytesRead, err := loadChain(dir, maxHeight)
	if err != nil || tip == 0 {
		return 0, 0, err
	}
	keys := sortedKeys(m)
	block := make([]state.VersionedWrite, 0, min(len(keys), 1024))
	for len(keys) > 0 {
		n := min(len(keys), 1024)
		block = block[:0]
		for _, k := range keys[:n] {
			e := m[k]
			if e.value == nil {
				e.value = []byte{} // a nil write would read as a deletion
			}
			block = append(block, state.VersionedWrite{
				Write:   txn.Write{Key: k, Value: e.value},
				Version: e.ver,
			})
		}
		if err := st.ApplyBlock(block); err != nil {
			return 0, 0, err
		}
		keys = keys[n:]
	}
	return tip, bytesRead, nil
}

// pruneChains removes old checkpoint files, retaining the newest keep
// files and then extending retention downward along chain links: the
// full snapshot a retained delta (transitively) applies on top of is
// never deleted, so pruning keeps whole chains and never orphans a
// delta.
func pruneChains(fs fsys, dir string, keep int) {
	files, err := listChain(dir)
	if err != nil || len(files) <= keep {
		return
	}
	retained := files[len(files)-keep:]
	// Collect the heights the retained files depend on by walking delta
	// bases transitively. A base may itself be a delta (whose own base
	// extends the walk) or a full (which roots the chain).
	byHeight := make(map[uint64][]chainFile, len(files))
	for _, f := range files {
		byHeight[f.height] = append(byHeight[f.height], f)
	}
	needed := make(map[uint64]bool)
	var walk func(h uint64)
	walk = func(h uint64) {
		if h == 0 || needed[h] {
			return
		}
		needed[h] = true
		for _, f := range byHeight[h] {
			if f.delta {
				walk(f.base)
			}
		}
	}
	for _, f := range retained {
		needed[f.height] = true
		if f.delta {
			walk(f.base)
		}
	}
	for _, f := range files[:len(files)-keep] {
		if needed[f.height] {
			continue
		}
		fs.remove(f.path(dir))
	}
}
