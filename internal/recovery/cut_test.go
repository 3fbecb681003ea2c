package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dichotomy/internal/state"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// A chain must survive a cut after any file operation, as ALICE checks
// applications (Pillai et al., "All File Systems Are Not Created Equal",
// OSDI 2014): a recorder stands in for the os under a writer, and each
// prefix of what it recorded is turned back into the disk a power cut, or
// a process crash, would leave at that point. Restore on that disk must
// return a height the writer checkpointed, with the writer's state at that
// height, and no lower than the newest write that had returned.

type opKind int

const (
	opMkdir opKind = iota
	opCreate
	opWrite
	opSync
	opRename
	opRemove
	opSyncDir
	numOps
)

func (k opKind) String() string {
	return [...]string{"mkdir", "create", "write", "sync", "rename", "remove", "syncDir"}[k]
}

// op is one recorded change. A write or a sync names its file by node, the
// index of the create that made it.
type op struct {
	kind     opKind
	path, to string
	node     int
	data     []byte
}

var errInjected = errors.New("injected failure")

// recorder is an fsys that records every change under root and carries it
// out on the real directory too, so the writer's own reads — its listings,
// a reopen — see what it wrote. The syncs it only records: the record is
// what a cut is computed from. One failure can be armed at a time: the
// next operation of that kind fails, changing nothing.
type recorder struct {
	root string

	mu    sync.Mutex
	ops   []op
	armed bool
	fail  opKind
	fired bool
}

func (r *recorder) record(o op) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, o)
	return len(r.ops) - 1
}

// arm makes the next operation of kind fail.
func (r *recorder) arm(kind opKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed, r.fail, r.fired = true, kind, false
}

// disarm drops an armed failure and reports whether it fired.
func (r *recorder) disarm() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = false
	return r.fired
}

func (r *recorder) fails(kind opKind) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.armed && r.fail == kind {
		r.armed, r.fired = false, true
		return true
	}
	return false
}

func (r *recorder) recorded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

func (r *recorder) mkdirAll(dir string) error {
	if r.fails(opMkdir) {
		return errInjected
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.record(op{kind: opMkdir, path: dir})
	return nil
}

func (r *recorder) create(path string) (syncFile, error) {
	if r.fails(opCreate) {
		return nil, errInjected
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &recordedFile{r: r, f: f, node: r.record(op{kind: opCreate, path: path})}, nil
}

func (r *recorder) rename(from, to string) error {
	if r.fails(opRename) {
		return errInjected
	}
	if err := os.Rename(from, to); err != nil {
		return err
	}
	r.record(op{kind: opRename, path: from, to: to})
	return nil
}

func (r *recorder) remove(path string) error {
	if r.fails(opRemove) {
		return errInjected
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	r.record(op{kind: opRemove, path: path})
	return nil
}

func (r *recorder) syncDir(dir string) error {
	if r.fails(opSyncDir) {
		return errInjected
	}
	r.record(op{kind: opSyncDir, path: dir})
	return nil
}

type recordedFile struct {
	r    *recorder
	f    *os.File
	node int
}

// Write records p as two writes, so a cut can tear it.
func (f *recordedFile) Write(p []byte) (int, error) {
	if f.r.fails(opWrite) {
		return 0, errInjected
	}
	n, err := f.f.Write(p)
	if err != nil {
		return n, err
	}
	half := len(p) / 2
	f.r.record(op{kind: opWrite, node: f.node, data: bytes.Clone(p[:half])})
	f.r.record(op{kind: opWrite, node: f.node, data: bytes.Clone(p[half:])})
	return n, nil
}

func (f *recordedFile) Sync() error {
	if f.r.fails(opSync) {
		return errInjected
	}
	f.r.record(op{kind: opSync, node: f.node})
	return nil
}

func (f *recordedFile) Close() error { return f.f.Close() }

// node is a file or a directory of the modelled disk. A file holds the
// bytes written to it and, apart, those it held at its last sync; a
// directory its entries and, apart, those it held at its last syncDir.
type node struct {
	dir           bool
	data, synced  []byte
	live, durable map[string]*node
}

func newDirNode() *node {
	return &node{dir: true, live: map[string]*node{}, durable: map[string]*node{}}
}

// materialise writes, into a fresh directory, the disk a cut after the
// first n operations leaves under root, and returns that directory. After
// a power cut (powerCut) a file keeps only the bytes it held at its last
// sync, and a name is there only as its directory stood at its last
// syncDir; after a process crash everything done stands.
func (r *recorder) materialise(t testing.TB, n int, powerCut bool) string {
	t.Helper()
	r.mu.Lock()
	ops := r.ops[:n]
	r.mu.Unlock()
	root := newDirNode()
	// walk returns the node at path, creating missing directories when
	// mkdir is set.
	walk := func(path string, mkdir bool) *node {
		rel, err := filepath.Rel(r.root, path)
		if err != nil {
			t.Fatal(err)
		}
		at := root
		if rel == "." {
			return at
		}
		for _, name := range strings.Split(rel, string(filepath.Separator)) {
			next := at.live[name]
			if next == nil && mkdir {
				next = newDirNode()
				at.live[name] = next
			}
			if next == nil {
				t.Fatalf("operation on %s: no %s under it", path, name)
			}
			at = next
		}
		return at
	}
	parent := func(path string) (*node, string) {
		return walk(filepath.Dir(path), false), filepath.Base(path)
	}
	files := make(map[int]*node)
	for i, o := range ops {
		switch o.kind {
		case opMkdir:
			walk(o.path, true)
		case opCreate:
			d, name := parent(o.path)
			files[i] = &node{}
			d.live[name] = files[i]
		case opWrite:
			files[o.node].data = append(files[o.node].data, o.data...)
		case opSync:
			files[o.node].synced = bytes.Clone(files[o.node].data)
		case opRename:
			from, fromName := parent(o.path)
			to, toName := parent(o.to)
			to.live[toName] = from.live[fromName]
			delete(from.live, fromName)
		case opRemove:
			d, name := parent(o.path)
			delete(d.live, name)
		case opSyncDir:
			d := walk(o.path, false)
			d.durable = maps.Clone(d.live)
		}
	}
	out := t.TempDir()
	var write func(dir string, d *node)
	write = func(dir string, d *node) {
		entries := d.live
		if powerCut {
			entries = d.durable
		}
		for name, n := range entries {
			path := filepath.Join(dir, name)
			if n.dir {
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
				write(path, n)
				continue
			}
			data := n.data
			if powerCut {
				data = n.synced
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(out, root)
	return out
}

// cutScript is a write sequence: before each of writes checkpoints at
// heights 1, 2, …, a block of randomStep's changes drawn from seed. Write
// number fail (0: none) is made to fail at its first operation of kind
// failOp.
type cutScript struct {
	seed            int64
	writes          int
	fullEvery, keep int
	fail            int
	failOp          opKind
}

// cutRun is what a script left: the recorder, the writer's state at each
// height it checkpointed (and the empty state at 0), and for each write
// that returned without error its height and how many operations had been
// recorded by then.
type cutRun struct {
	rec      *recorder
	states   map[uint64]map[string]chainEntry
	returned []cutMark
}

type cutMark struct {
	ops    int
	height uint64
}

// cutWriters runs a script through each writer, on a chain in root/chain.
var cutWriters = []struct {
	name string
	run  func(t testing.TB, s cutScript) *cutRun
}{
	{"Checkpointer", func(t testing.TB, s cutScript) *cutRun {
		rec := &recorder{root: t.TempDir()}
		src := state.New(memdb.New(), 4)
		defer src.Close()
		c, err := NewCheckpointer(src, Options{Dir: filepath.Join(rec.root, "chain"), Interval: 1, Keep: s.keep, Mode: ModeDelta, FullEvery: s.fullEvery})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.chain.enc.fs = rec
		return s.run(rec, func(h uint64, rng *rand.Rand) (map[string]chainEntry, bool) {
			var block []state.VersionedWrite
			randomStep(rng, int(h), func(i int, key string, value []byte) {
				block = append(block, state.VersionedWrite{
					Write:   txn.Write{Key: key, Value: value},
					Version: txn.Version{BlockNum: h, TxNum: uint32(i)},
				})
			})
			if err := src.ApplyBlock(block); err != nil {
				t.Fatal(err)
			}
			_, _, before := c.Totals()
			if err := c.Checkpoint(h); err != nil {
				t.Fatal(err)
			}
			c.Flush()
			_, _, after := c.Totals()
			return storeDump(src), after > before // the worker counts what it wrote
		})
	}},
	{"ChainWriter", func(t testing.TB, s cutScript) *cutRun {
		rec := &recorder{root: t.TempDir()}
		w, err := OpenChainWriter(Options{Dir: filepath.Join(rec.root, "chain"), Interval: 1, Keep: s.keep, Mode: ModeDelta, FullEvery: s.fullEvery})
		if err != nil {
			t.Fatal(err)
		}
		w.chain.enc.fs = rec
		src := make(map[string]chainEntry)
		return s.run(rec, func(h uint64, rng *rand.Rand) (map[string]chainEntry, bool) {
			randomStep(rng, int(h), func(_ int, key string, value []byte) {
				if value == nil {
					delete(src, key)
				} else {
					src[key] = chainEntry{value: value}
				}
			})
			err := w.Checkpoint(h, func(emit func(key string, value []byte)) {
				for k, e := range src {
					emit(k, e.value)
				}
			})
			return maps.Clone(src), err == nil
		})
	}},
}

// run drives one writer through s: checkpoint(h, rng) applies height h's
// block, checkpoints it, and returns the writer's state at h and whether
// the write landed.
func (s cutScript) run(rec *recorder, checkpoint func(h uint64, rng *rand.Rand) (map[string]chainEntry, bool)) *cutRun {
	rng := rand.New(rand.NewSource(s.seed))
	run := &cutRun{rec: rec, states: map[uint64]map[string]chainEntry{0: {}}}
	for h := uint64(1); h <= uint64(s.writes); h++ {
		if h == uint64(s.fail) {
			rec.arm(s.failOp)
		}
		st, ok := checkpoint(h, rng)
		rec.disarm()
		run.states[h] = st
		if ok {
			run.returned = append(run.returned, cutMark{ops: rec.recorded(), height: h})
		}
	}
	return run
}

// checkCut restores the disks a power cut and a process crash after the
// first n recorded operations leave, and holds each to the two invariants.
func (run *cutRun) checkCut(t testing.TB, n int) {
	t.Helper()
	var newest uint64
	for _, m := range run.returned {
		if m.ops <= n {
			newest = m.height
		}
	}
	for _, powerCut := range []bool{true, false} {
		cut := fmt.Sprintf("cut after %d of %d operations, power cut %v", n, run.rec.recorded(), powerCut)
		st := state.New(memdb.New(), 4)
		h, _, err := Restore(st, filepath.Join(run.rec.materialise(t, n, powerCut), "chain"), 0)
		got := storeDump(st)
		st.Close()
		if err != nil {
			t.Fatalf("%s: %v", cut, err)
		}
		if want, ok := run.states[h]; !ok || !sameState(got, want) {
			t.Fatalf("%s: Restore returned height %d with %d keys, not the writer's state there (%d keys)", cut, h, len(got), len(want))
		}
		if h < newest {
			t.Fatalf("%s: Restore returned height %d, but the write of height %d had returned", cut, h, newest)
		}
	}
}

func sameState(a, b map[string]chainEntry) bool {
	return maps.EqualFunc(a, b, func(x, y chainEntry) bool {
		return x.ver == y.ver && bytes.Equal(x.value, y.value)
	})
}

// TestChainSurvivesACutAtEveryOperation runs each writer through a
// chain-seeding full, deltas, a FullEvery fold and pruning, with one write
// failing through the seam and the next covering it, and restores the
// disk a cut after every recorded operation leaves.
func TestChainSurvivesACutAtEveryOperation(t *testing.T) {
	for _, s := range []cutScript{
		// Write 3, a delta, fails at its rename; the fold at 4 covers it.
		{seed: 1, writes: 7, fullEvery: 4, keep: 2, fail: 3, failOp: opRename},
		// Write 6 fails after its rename; the delta at 7 covers it.
		{seed: 2, writes: 7, fullEvery: 4, keep: 2, fail: 6, failOp: opSyncDir},
		// The chain-seeding full fails before it reaches the directory.
		{seed: 3, writes: 4, fullEvery: 3, keep: 2, fail: 1, failOp: opSync},
	} {
		for _, w := range cutWriters {
			t.Run(fmt.Sprintf("%s/fail-%d-at-%v", w.name, s.fail, s.failOp), func(t *testing.T) {
				run := w.run(t, s)
				for n := 0; n <= run.rec.recorded(); n++ {
					run.checkCut(t, n)
				}
			})
		}
	}
}

// FuzzChainCutPoint draws a write sequence — its changes, its length, the
// FullEvery and Keep it runs under, which write fails at which operation —
// and a cut, and holds the disks that cut leaves to the invariants
// TestChainSurvivesACutAtEveryOperation checks at every cut.
func FuzzChainCutPoint(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(4), uint8(2), uint8(3), uint8(opRename), uint16(40), false)
	f.Add(int64(2), uint8(7), uint8(4), uint8(2), uint8(6), uint8(opSyncDir), uint16(90), true)
	f.Add(int64(3), uint8(4), uint8(3), uint8(1), uint8(1), uint8(opSync), uint16(7), false)
	f.Fuzz(func(t *testing.T, seed int64, writes, fullEvery, keep, fail, failOp uint8, cut uint16, chainWriter bool) {
		s := cutScript{
			seed:      seed,
			writes:    1 + int(writes%10),
			fullEvery: 1 + int(fullEvery%5),
			keep:      1 + int(keep%4),
			failOp:    opKind(failOp % uint8(numOps)),
		}
		s.fail = int(fail) % (s.writes + 1)
		w := cutWriters[0]
		if chainWriter {
			w = cutWriters[1]
		}
		run := w.run(t, s)
		run.checkCut(t, int(cut)%(run.rec.recorded()+1))
	})
}

// A crash between a write's create and its rename leaves the temp file
// behind; listChain skips it, so only the next writer to open the chain
// can remove it. Every writer sweeps as it opens.
func TestOpenSweepsTempFilesACrashLeft(t *testing.T) {
	run := cutWriters[1].run(t, cutScript{seed: 4, writes: 3, fullEvery: 2, keep: 2})
	openers := []struct {
		name string
		open func(dir string) error
	}{
		{"NewCheckpointer", func(dir string) error {
			st := state.New(memdb.New(), 4)
			defer st.Close()
			c, err := NewCheckpointer(st, Options{Dir: dir, Interval: 1, Mode: ModeDelta})
			if err == nil {
				c.Close()
			}
			return err
		}},
		{"RestoreCheckpointer", func(dir string) error {
			st := state.New(memdb.New(), 4)
			defer st.Close()
			c, _, err := RestoreCheckpointer(st, Options{Dir: dir, Interval: 1}, 0)
			if err == nil {
				c.Close()
			}
			return err
		}},
		{"OpenChainWriter", func(dir string) error {
			_, err := OpenChainWriter(Options{Dir: dir, Interval: 1})
			return err
		}},
	}
	temps := func(dir string) []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	cuts := 0
	for i, o := range run.rec.ops {
		if o.kind != opCreate {
			continue
		}
		// Cut right after the create, and halfway through the first write.
		for _, n := range []int{i + 1, i + 2} {
			for _, opener := range openers {
				dir := filepath.Join(run.rec.materialise(t, n, false), "chain")
				if len(temps(dir)) != 1 {
					t.Fatalf("a cut after %d operations left temp files %v, want one", n, temps(dir))
				}
				if err := opener.open(dir); err != nil {
					t.Fatalf("%s after a cut at %d: %v", opener.name, n, err)
				}
				if left := temps(dir); len(left) != 0 {
					t.Fatalf("%s after a cut at %d left %v", opener.name, n, left)
				}
				cuts++
			}
		}
	}
	if cuts == 0 {
		t.Fatal("the script recorded no create")
	}
}
