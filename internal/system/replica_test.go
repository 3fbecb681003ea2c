package system

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/authstate"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/recovery"
	"dichotomy/internal/storage"
	"dichotomy/internal/storage/memdb"
	"dichotomy/internal/txn"
)

// spyEngine is an in-memory engine that remembers being closed.
type spyEngine struct {
	storage.Engine
	closed atomic.Bool
}

func (e *spyEngine) Close() error {
	e.closed.Store(true)
	return e.Engine.Close()
}

// testReplica opens a memory-only replica over spy engines; engines
// collects every engine the replica opens, set-up's and each recovery's.
func testReplica(t *testing.T, cfg ReplicaConfig) (r *Replica, engines *[]*spyEngine) {
	t.Helper()
	engines = new([]*spyEngine)
	if cfg.Label == "" {
		cfg.Label = "test replica"
	}
	cfg.Engine = func(string) (storage.Engine, error) {
		e := &spyEngine{Engine: memdb.New()}
		*engines = append(*engines, e)
		return e, nil
	}
	r, err := OpenReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, engines
}

// fakeSource is a replay source of empty blocks whose tip the test moves.
type fakeSource struct {
	mu     sync.Mutex
	height uint64
	gone   uint64 // a block the source reports missing; 0 = none
}

func (s *fakeSource) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.height
}

func (s *fakeSource) Payloads(n uint64) ([][]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil, n >= 1 && n <= s.height && n != s.gone
}

func (s *fakeSource) grow(to uint64) {
	s.mu.Lock()
	s.height = to
	s.mu.Unlock()
}

// counter is the recovering replica's height under a stage that only counts.
type counter struct{ atomic.Uint64 }

func (c *counter) stage(uint64, [][]byte) error { c.Add(1); return nil }

func TestCatchUpWaitsForSourceBelowD(t *testing.T) {
	r, _ := testReplica(t, ReplicaConfig{})
	r.Crash()
	if _, err := r.Rebuild(0, nil); err != nil {
		t.Fatal(err)
	}
	r.Delivered.Store(5)
	src := &fakeSource{height: 3}
	grown := make(chan struct{})
	go func() {
		defer close(grown)
		time.Sleep(20 * time.Millisecond)
		src.grow(6)
	}()
	var h counter
	var stats recovery.Stats
	if err := r.CatchUp(src, h.Load, h.stage, &stats); err != nil {
		t.Fatalf("catch-up over a source that reaches D late: %v", err)
	}
	<-grown
	if h.Load() != 6 || stats.TipHeight != 6 || stats.ReplayedBlocks != 6 {
		t.Fatalf("caught up to %d (stats %+v), want the source's 6 ≥ D = 5", h.Load(), stats)
	}
	if stats.ReplayDuration < 20*time.Millisecond {
		t.Fatalf("replay took %v, less than the source needed to reach D", stats.ReplayDuration)
	}
}

func TestCatchUpStuckSourceFailsAtDeadline(t *testing.T) {
	r, engines := testReplica(t, ReplicaConfig{})
	r.Crash()
	if _, err := r.Rebuild(0, nil); err != nil {
		t.Fatal(err)
	}
	r.Delivered.Store(5)
	r.catchUpWait = 30 * time.Millisecond
	var h counter
	var stats recovery.Stats
	start := time.Now()
	err := r.CatchUp(&fakeSource{height: 3}, h.Load, h.stage, &stats)
	if err == nil || !strings.Contains(err.Error(), "stuck below drained position 5") {
		t.Fatalf("catch-up over a source stuck at 3 < D = 5: %v", err)
	}
	if d := time.Since(start); d < r.catchUpWait {
		t.Fatalf("gave up after %v, before the %v deadline", d, r.catchUpWait)
	}
	if stats.ReplayedBlocks != 3 {
		t.Fatalf("replayed %d blocks before giving up, want the source's 3", stats.ReplayedBlocks)
	}
	// A failed recovery leaves what a crash leaves: engines closed.
	if !r.Crashed() || r.Ledger != nil || !(*engines)[1].closed.Load() {
		t.Fatal("failed catch-up left the replica live, or its rebuilt engine open")
	}
}

func TestCatchUpReportsStageErrorAndSourceGap(t *testing.T) {
	errStage := errors.New("stage failed")
	for name, tc := range map[string]struct {
		src   *fakeSource
		stage func(uint64, [][]byte) error
		want  string
	}{
		"stage error": {&fakeSource{height: 3}, func(n uint64, _ [][]byte) error {
			if n == 2 {
				return errStage
			}
			return nil
		}, "replay block 2: stage failed"},
		"source gap": {&fakeSource{height: 3, gone: 2}, func(uint64, [][]byte) error { return nil }, "source missing block 2"},
	} {
		r, _ := testReplica(t, ReplicaConfig{})
		r.Crash()
		if _, err := r.Rebuild(0, nil); err != nil {
			t.Fatal(err)
		}
		var h counter
		var stats recovery.Stats
		err := r.CatchUp(tc.src, h.Load, func(n uint64, payloads [][]byte) error {
			if err := tc.stage(n, payloads); err != nil {
				return err
			}
			return h.stage(n, payloads)
		}, &stats)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: catch-up returned %v, want %q", name, err, tc.want)
		}
		if stats.ReplayedBlocks != 1 || !r.Crashed() {
			t.Fatalf("%s: replayed %d blocks, crashed=%v; want 1 and still crashed", name, stats.ReplayedBlocks, r.Crashed())
		}
	}
}

// The source replica crashes while a peer replays its ledger: Crash nils
// the source's Ledger field, which the per-system loops re-read on every
// pass and dereferenced. The shared catch-up works on the value its
// caller read once, so the crash shows as a source that stopped growing.
func TestCatchUpLedgerSurvivesSourceCrashingMidReplay(t *testing.T) {
	src, _ := testReplica(t, ReplicaConfig{})
	for i := 0; i < 3; i++ {
		src.Ledger.Seal(nil, cryptoutil.Hash{}, 0)
	}
	r, _ := testReplica(t, ReplicaConfig{})
	r.Crash()
	stats, err := r.Rebuild(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Delivered.Store(5) // the source never gets there
	r.catchUpWait = 30 * time.Millisecond
	staged := 0
	err = r.CatchUpLedger(src.Ledger, func([]*txn.Tx) error {
		if staged++; staged == 2 {
			src.Crash()
		}
		return nil
	}, &stats)
	if err == nil || !strings.Contains(err.Error(), "stuck below drained position 5") {
		t.Fatalf("catch-up from a source that crashed mid-replay: %v", err)
	}
	if staged != 3 || stats.ReplayedBlocks != 3 {
		t.Fatalf("staged %d blocks (stats %+v), want all 3 the source had sealed", staged, stats)
	}
}

// The replica handed to Rebuild as the source crashes mid-replay: the
// catch-up fails as soon as the source has nothing more to give, naming
// it, instead of waiting out catchUpWait's 30 s.
func TestCatchUpFailsAtOnceWhenItsSourceCrashes(t *testing.T) {
	src, _ := testReplica(t, ReplicaConfig{Label: "source replica"})
	for i := 0; i < 3; i++ {
		src.Ledger.Seal(nil, cryptoutil.Hash{}, 0)
	}
	srcLedger := src.Ledger
	r, _ := testReplica(t, ReplicaConfig{})
	r.Crash()
	stats, err := r.Rebuild(0, src)
	if err != nil {
		t.Fatal(err)
	}
	r.Delivered.Store(5) // the source never gets there
	staged := 0
	start := time.Now()
	err = r.CatchUpLedger(srcLedger, func([]*txn.Tx) error {
		if staged++; staged == 2 {
			src.Crash()
		}
		return nil
	}, &stats)
	if err == nil || !strings.Contains(err.Error(), "replay source source replica crashed below position 5") {
		t.Fatalf("catch-up from a source that crashed mid-replay: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("gave up after %v; the 30 s deadline, not the crash, ended the catch-up", d)
	}
	if staged != 3 || !r.Crashed() {
		t.Fatalf("staged %d blocks, crashed=%v; want all 3 the source had sealed, and still crashed", staged, r.Crashed())
	}
}

// Consume records each stream position and skips those at or below the
// tip the last catch-up replayed to: the restarted decode stage drops what
// the replay already appended and takes everything above.
func TestConsumeSkipsUpToTheRecoveryTip(t *testing.T) {
	r, _ := testReplica(t, ReplicaConfig{})
	if !r.Consume(1) {
		t.Fatal("a never-recovered replica skipped position 1")
	}
	r.Crash()
	if _, err := r.Rebuild(0, nil); err != nil {
		t.Fatal(err)
	}
	var h counter
	var stats recovery.Stats
	if err := r.CatchUp(&fakeSource{height: 4}, h.Load, h.stage, &stats); err != nil {
		t.Fatal(err)
	}
	r.Restart()
	for pos, want := range map[uint64]bool{2: false, 4: false, 5: true} {
		if got := r.Consume(pos); got != want || r.Delivered.Load() != pos {
			t.Fatalf("Consume(%d) = %v with Delivered %d after a catch-up to 4; want %v and %d", pos, got, r.Delivered.Load(), want, pos)
		}
	}
}

// Blocks up to the restored checkpoint are copied, not re-applied, and a
// source that has not even reached the checkpoint yet is waited for like
// one below D (the per-system prefix loops failed with "missing block").
func TestCatchUpLedgerCopiesThePrefixAndStagesTheTail(t *testing.T) {
	src, _ := testReplica(t, ReplicaConfig{})
	seal := func(upTo uint64) {
		for src.Ledger.Height() < upTo {
			src.Ledger.Seal(nil, cryptoutil.Hash{}, 0)
		}
	}
	seal(2)
	r, _ := testReplica(t, ReplicaConfig{})
	r.Crash()
	stats, err := r.Rebuild(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats.CheckpointHeight = 3 // as if a checkpoint at 3 had been restored
	r.Delivered.Store(4)
	grown := make(chan struct{})
	go func() {
		defer close(grown)
		time.Sleep(20 * time.Millisecond)
		seal(5)
	}()
	staged := 0
	if err := r.CatchUpLedger(src.Ledger, func([]*txn.Tx) error { staged++; return nil }, &stats); err != nil {
		t.Fatalf("catch-up from a source that starts below the checkpoint: %v", err)
	}
	<-grown
	if staged != 2 || stats.ReplayedBlocks != 2 || stats.TipHeight != 5 {
		t.Fatalf("staged %d blocks (stats %+v), want blocks 4 and 5 only", staged, stats)
	}
	if r.Ledger.Head().Hash() != src.Ledger.Head().Hash() {
		t.Fatal("recovered ledger head diverges from the source's")
	}
}

func TestCrashIsIdempotentAndStopsTheReplica(t *testing.T) {
	r, engines := testReplica(t, ReplicaConfig{})
	looped := make(chan struct{})
	r.Run(func(stop <-chan struct{}) { <-stop; close(looped) })

	if !r.Crash() {
		t.Fatal("first Crash reported the replica already down")
	}
	select {
	case <-looped:
	default:
		t.Fatal("Crash returned before the replica's loop had stopped")
	}
	if !r.Crashed() || r.Ledger != nil || !(*engines)[0].closed.Load() {
		t.Fatal("Crash left the replica live, its ledger in place or its engine open")
	}
	if r.Crash() {
		t.Fatal("second Crash reported it crashed the replica again")
	}
}

func TestOpenReplicaErrorPathClosesWhatItOpened(t *testing.T) {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	base := runtime.NumGoroutine()

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r0"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var eng *spyEngine
	_, err := OpenReplica(ReplicaConfig{
		Label:   "test replica",
		DataDir: dir,
		Name:    "r0", // a regular file: the checkpointer cannot make r0/ckpt
		Engine: func(string) (storage.Engine, error) {
			eng = &spyEngine{Engine: memdb.New()}
			return eng, nil
		},
		Auth:       &authstate.Config{Signer: cryptoutil.MustNewSigner("test-replica")},
		Checkpoint: recovery.Options{Interval: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "test replica: checkpointer:") {
		t.Fatalf("OpenReplica over an unusable checkpoint directory: %v", err)
	}
	if !eng.closed.Load() {
		t.Fatal("failed set-up left the engine open")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("failed set-up left %d goroutines running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
