package system

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/mvcc"
	"dichotomy/internal/recovery"
)

// tally is the group tests' state machine: four append-only strings, so
// applying a command twice — or skipping one — changes the dump, plus a
// record of which raft indexes Apply saw each command at. Restored
// records leave no such record, which is how the tests tell an entry that
// was re-applied from one the checkpoint covered. A command's body is its
// number, unique in the test binary, then a value.
type tally struct {
	mu   sync.Mutex
	vals map[string]string
	seen map[uint64][]uint64 // command number → raft indexes it was applied at
}

func newTally() *tally {
	return &tally{vals: map[string]string{}, seen: map[uint64][]uint64{}}
}

func (s *tally) apply(e consensus.Entry) Result {
	n := binary.BigEndian.Uint64(e.Data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[fmt.Sprintf("k%d", n%4)] += "|" + string(e.Data[8:])
	s.seen[n] = append(s.seen[n], e.Index)
	return Result{Committed: true}
}

func (s *tally) dump(emit func(key string, value []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.vals {
		emit(k, []byte(v))
	}
}

func (s *tally) restore(key string, value []byte) error {
	s.vals[key] = string(value)
	return nil
}

func (s *tally) seenAt() map[uint64][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64][]uint64, len(s.seen))
	for n, at := range s.seen {
		out[n] = append([]uint64(nil), at...)
	}
	return out
}

// requireOnce fails unless every command in seen was applied at exactly
// one index.
func requireOnce(t *testing.T, who string, seen map[uint64][]uint64) {
	t.Helper()
	for n, at := range seen {
		if len(at) != 1 {
			t.Fatalf("%s applied command %d at indexes %v, want exactly one", who, n, at)
		}
	}
}

var tallySeq atomic.Uint64

// tallyCmd returns a fresh tally command behind room for the group's
// header.
func tallyCmd() []byte {
	n := tallySeq.Add(1)
	cmd := binary.BigEndian.AppendUint64(make([]byte, consensus.Header), n)
	return append(cmd, fmt.Sprintf("v%d", n)...)
}

// tallyConfig describes a three-member group of tallies on net; dir == ""
// leaves it without checkpoint chains.
func tallyConfig(net *cluster.Network, dir string, ckpt recovery.Options) GroupConfig[tally] {
	return GroupConfig[tally]{
		Label:      "test: group 7",
		Net:        net,
		Peers:      []cluster.NodeID{70, 71, 72},
		DataDir:    dir,
		Name:       "group-007",
		Checkpoint: ckpt,
		New:        newTally,
		Apply:      (*tally).apply,
		Dump:       (*tally).dump,
		Restore:    (*tally).restore,
		Leaderless: "test: leaderless",
		Timeout:    "test: apply timeout",
	}
}

// tallyGroup starts that group and closes it with the test.
func tallyGroup(t *testing.T, dir string, ckpt recovery.Options) *Group[tally] {
	t.Helper()
	net := cluster.NewNetwork(nil)
	g := NewGroup(tallyConfig(net, dir, ckpt))
	t.Cleanup(func() {
		g.Close()
		net.Close()
	})
	return g
}

// put proposes n commands, requires each to be applied, and returns them,
// headers filled in.
func put(t *testing.T, g *Group[tally], n int) [][]byte {
	t.Helper()
	var cmds [][]byte
	for i := 0; i < n; i++ {
		cmd := tallyCmd()
		if r := g.Propose(cmd); r.Err != nil || !r.Committed {
			t.Fatalf("propose %x: %+v", cmd, r)
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// proposeCopy hands cmd's exact bytes, header and all, straight to the
// raft leader's node: a second copy of an applied request, as a
// re-proposal racing a slow first one leaves in the log.
func proposeCopy[T any](t *testing.T, g *Group[T], cmd []byte) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		for _, rep := range g.reps {
			if cons := rep.member(); !rep.crashed.Load() && cons.IsLeader() && cons.Propose(cmd) == nil {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no leader took the copy")
		}
		time.Sleep(time.Millisecond)
	}
}

// settle waits until every member in live has applied the same index.
func settle[T any](t *testing.T, g *Group[T], live ...int) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		top, same := g.Applied(live[0]), true
		for _, i := range live[1:] {
			a := g.Applied(i)
			same = same && a == top
			top = max(top, a)
		}
		if same && top > 0 {
			return top
		}
		if time.Now().After(deadline) {
			t.Fatalf("members %v never converged (newest applied index %d)", live, top)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGroupProposeReachesEveryReplica(t *testing.T) {
	g := tallyGroup(t, "", recovery.Options{})
	put(t, g, 5)
	top := settle(t, g, 0, 1, 2)
	for i := 0; i < g.Replicas(); i++ {
		seen := g.State(i).seenAt()
		if len(seen) != 5 {
			t.Fatalf("replica %d applied %d commands, want 5", i, len(seen))
		}
		requireOnce(t, fmt.Sprintf("replica %d", i), seen)
		if !reflect.DeepEqual(g.Dump(i), g.Dump(0)) {
			t.Fatalf("replica %d dump %v != replica 0's %v", i, g.Dump(i), g.Dump(0))
		}
	}
	// The resolved write is visible where reads are routed.
	st, err := g.Freshest()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.seenAt()) != 5 || top < 5 {
		t.Fatalf("freshest replica saw %d requests at applied index %d, want 5", len(st.seenAt()), top)
	}
}

// Propose offers a command first to the member the last accepting one
// named as leader, so a steady group's proposals skip a follower's
// forwarding hop.
func TestGroupProposesToLeaderFirst(t *testing.T) {
	g := tallyGroup(t, "", recovery.Options{})
	put(t, g, 3)
	if i := g.lead.Load(); !g.reps[i].member().IsLeader() {
		t.Fatalf("Propose would start at member %d, which does not lead", i)
	}
}

func TestGroupCrashSkipsReplica(t *testing.T) {
	g := tallyGroup(t, "", recovery.Options{})
	put(t, g, 3)
	settle(t, g, 0, 1, 2)
	if _, err := g.Recover(1); err == nil || err.Error() != "test: group 7 replica 1 is not crashed" {
		t.Fatalf("Recover of a live replica: %v", err)
	}
	g.Crash(1)
	g.Crash(1) // idempotent
	down := g.State(1)
	put(t, g, 3)
	settle(t, g, 0, 2)
	if n := len(down.seenAt()); n != 3 {
		t.Fatalf("crashed replica applied %d requests, want the 3 from before the crash", n)
	}
	if st, err := g.Freshest(); err != nil || st == down {
		t.Fatalf("Freshest routed to the crashed replica (err %v)", err)
	}
}

// A recovered member must end where a never-crashed one is — restoring a
// checkpoint and applying only the log above it (incremental) equals
// replaying the whole log into an empty state machine (from scratch), and
// both equal never having crashed. The log holds a second copy of the
// request the victim's newest checkpoint ends on, committed while the
// victim is down and before any later request could raise the mark past
// it: the checkpoint falls between the two copies, so only the window
// restored with it can tell the recovered member to drop the second.
func TestGroupRecoverEqualsNeverCrashed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chain bool
		mode  recovery.Mode
	}{
		{name: "no chain"},
		{name: "full", chain: true, mode: recovery.ModeFull},
		{name: "delta", chain: true, mode: recovery.ModeDelta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.chain {
				dir = t.TempDir()
			}
			// Checkpoints at 3, 6, 9: in delta mode a full and two deltas.
			g := tallyGroup(t, dir, recovery.Options{Interval: 3, Keep: 8, Mode: tc.mode, FullEvery: 4})
			const vic = 2
			last := put(t, g, 9)[8]
			settle(t, g, 0, 1, 2)
			g.Crash(vic)
			proposeCopy(t, g, last)
			put(t, g, 7) // committed while the victim is down
			stats, err := g.Recover(vic)
			if err != nil {
				t.Fatal(err)
			}
			put(t, g, 4)
			settle(t, g, 0, 1, 2)

			if tc.chain != (stats.CheckpointHeight > 0) {
				t.Fatalf("restored height %d", stats.CheckpointHeight)
			}
			lastAt := g.State(0).seenAt()[binary.BigEndian.Uint64(last[consensus.Header:])]
			if tc.chain && (len(lastAt) == 0 || stats.CheckpointHeight < lastAt[0]) {
				t.Fatalf("restored height %d is below the first copy (applied at %v)", stats.CheckpointHeight, lastAt)
			}
			// Reference: every index a never-crashed member applied each
			// request at — one each. The recovered state machine must have
			// been handed exactly those above the restored height, and none
			// at or below.
			requireOnce(t, "the never-crashed replica", g.State(0).seenAt())
			want := map[uint64][]uint64{}
			for id, at := range g.State(0).seenAt() {
				for _, idx := range at {
					if idx > stats.CheckpointHeight {
						want[id] = append(want[id], idx)
					}
				}
			}
			if got := g.State(vic).seenAt(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered replica applied %v, want %v (restored height %d)", got, want, stats.CheckpointHeight)
			}
			if got, ref := g.Dump(vic), g.Dump(0); !reflect.DeepEqual(got, ref) {
				t.Fatalf("recovered dump %v != never-crashed %v", got, ref)
			}
		})
	}
}

func TestGroupCorruptChainDegradesToNoCheckpoints(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "group-007", "replica-0")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "ckpt-0000000000000005.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	g := tallyGroup(t, dir, recovery.Options{Interval: 2, Keep: 4})
	put(t, g, 6)
	settle(t, g, 0, 1, 2)
	if files, _ := os.ReadDir(bad); len(files) != 1 {
		t.Fatalf("replica 0 wrote into its corrupt chain directory: %d files", len(files))
	}
	if files, _ := os.ReadDir(filepath.Join(dir, "group-007", "replica-1")); len(files) == 0 {
		t.Fatal("replica 1, whose directory was clean, wrote no checkpoint")
	}
	if !reflect.DeepEqual(g.Dump(0), g.Dump(1)) {
		t.Fatalf("replica 0 dump %v != replica 1's %v", g.Dump(0), g.Dump(1))
	}
}

func TestGroupLeaderlessWhenAllReplicasCrashed(t *testing.T) {
	g := tallyGroup(t, "", recovery.Options{})
	put(t, g, 1)
	for i := 0; i < g.Replicas(); i++ {
		g.Crash(i)
	}
	g.Deadline = 30 * time.Millisecond
	start := time.Now()
	var r Result
	if n := CountGiveUps(func() { r = g.Propose(tallyCmd()) }); n != 1 {
		t.Fatalf("%d give-ups counted, want 1", n)
	}
	if r.Err == nil || r.Err.Error() != "test: leaderless" || r.Err != g.errLeaderless {
		t.Fatalf("propose into a dead group: %+v, want test: leaderless", r)
	}
	if d := time.Since(start); d < g.Deadline {
		t.Fatalf("gave up after %v, before the %v deadline", d, g.Deadline)
	}
	if _, err := g.Freshest(); err == nil || !strings.Contains(err.Error(), "test: group 7 has no live replica") {
		t.Fatalf("Freshest of a dead group: %v", err)
	}
}

func TestGroupCloseAfterCrashLeaksNothing(t *testing.T) {
	base := GoroutineBaseline()
	net := cluster.NewNetwork(nil)
	g := NewGroup(tallyConfig(net, t.TempDir(), recovery.Options{Interval: 2}))
	put(t, g, 4)
	g.Crash(0)
	g.Crash(1)
	if _, err := g.Recover(1); err != nil {
		t.Fatal(err)
	}
	g.Close()
	net.Close()
	AssertGoroutinesReturn(t, base)
}

// A closed group stays closed, whatever is called on it afterwards and in
// whatever order. (At the parent Close then Crash closed a member's stop
// channel twice and panicked.)
func TestGroupClosedStaysClosed(t *testing.T) {
	base := GoroutineBaseline()
	net := cluster.NewNetwork(nil)
	g := NewGroup(tallyConfig(net, t.TempDir(), recovery.Options{Interval: 2}))
	put(t, g, 4)
	g.Crash(2)
	g.Close()

	g.Crash(0)
	if _, err := g.Recover(0); err == nil || !strings.Contains(err.Error(), "replica 0 is not crashed") {
		t.Fatalf("Recover of a member that was live at Close: %v, want \"is not crashed\"", err)
	}
	if _, err := g.Recover(2); err == nil || !strings.Contains(err.Error(), "group is closed") {
		t.Fatalf("Recover of a member that was down at Close: %v, want \"group is closed\"", err)
	}
	g.Close()
	net.Close()
	AssertGoroutinesReturn(t, base)
}

// A second copy of an applied request, committed behind a command that
// conflicts with it, is dropped by every member: the tally's request is
// applied at one index (at the parent, two, and its value twice).
func TestGroupDropsCopyBehindConflict(t *testing.T) {
	g := tallyGroup(t, "", recovery.Options{})
	first := put(t, g, 1)[0]
	put(t, g, 4) // one of four consecutive commands shares first's key
	proposeCopy(t, g, first)
	put(t, g, 1)
	settle(t, g, 0, 1, 2)
	for i := 0; i < g.Replicas(); i++ {
		requireOnce(t, fmt.Sprintf("replica %d", i), g.State(i).seenAt())
		if !reflect.DeepEqual(g.Dump(i), g.Dump(0)) {
			t.Fatalf("replica %d dump %v != replica 0's %v", i, g.Dump(i), g.Dump(0))
		}
	}
}

// The Percolator shape of the same: a prewrite, its rollback, then the
// prewrite's second copy. Applied, the copy re-creates the lock the
// rollback cleared, and nothing would ever clear it (at the parent it did).
func TestGroupDropsPrewriteCopyBehindRollback(t *testing.T) {
	net := cluster.NewNetwork(nil)
	g := NewGroup(GroupConfig[mvcc.Store]{
		Label: "test: locks",
		Net:   net,
		Peers: []cluster.NodeID{80, 81, 82},
		New:   mvcc.NewStore,
		Apply: func(st *mvcc.Store, e consensus.Entry) Result {
			var err error
			switch e.Data[0] {
			case 'p':
				err = st.Prewrite("k", []byte("v"), false, 5, "k")
			case 'r':
				st.Rollback("k", 5)
			}
			return Result{Committed: err == nil, Err: err}
		},
		Dump:       (*mvcc.Store).DumpEntries,
		Restore:    (*mvcc.Store).SetEntry,
		Leaderless: "test: leaderless",
		Timeout:    "test: apply timeout",
	})
	t.Cleanup(func() {
		g.Close()
		net.Close()
	})
	cmd := func(kind byte) []byte { return append(make([]byte, consensus.Header), kind) }
	prewrite := cmd('p')
	for _, c := range [][]byte{prewrite, cmd('r')} {
		if r := g.Propose(c); !r.Committed {
			t.Fatalf("propose %q: %+v", c[consensus.Header:], r)
		}
	}
	proposeCopy(t, g, prewrite)
	if r := g.Propose(cmd('-')); !r.Committed { // behind the copy
		t.Fatalf("marker: %+v", r)
	}
	settle(t, g, 0, 1, 2)
	for i := 0; i < g.Replicas(); i++ {
		if g.State(i).Locked("k") {
			t.Fatalf("replica %d: the prewrite's copy re-created the lock its rollback cleared", i)
		}
	}
}

// Sixteen proposers racing through Propose: every request is applied
// exactly once on every member, and none is dropped by a mark that passed
// it — which would stall it to the deadline.
func TestGroupRacingProposersApplyEachOnce(t *testing.T) {
	g := tallyGroup(t, "", recovery.Options{})
	g.Deadline = 5 * time.Second
	const proposers, each = 16, 25
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if r := g.Propose(tallyCmd()); !r.Committed {
					t.Errorf("propose: %+v", r)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	settle(t, g, 0, 1, 2)
	for i := 0; i < g.Replicas(); i++ {
		seen := g.State(i).seenAt()
		if len(seen) != proposers*each {
			t.Fatalf("replica %d applied %d requests, want %d", i, len(seen), proposers*each)
		}
		requireOnce(t, fmt.Sprintf("replica %d", i), seen)
	}
}
