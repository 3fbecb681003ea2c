package system_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dichotomy/internal/cluster"
	"dichotomy/internal/consensus"
	"dichotomy/internal/recovery"
	"dichotomy/internal/system"
)

// tally is the group tests' state machine: four append-only strings, so
// applying an entry twice — or skipping one — changes the dump, plus a
// record of which raft indexes Apply saw each request at. Restored
// records leave no such record, which is how the tests tell an entry that
// was re-applied from one the checkpoint covered.
type tally struct {
	mu   sync.Mutex
	vals map[string]string
	seen map[uint64][]uint64 // request id → raft indexes it was applied at
}

func newTally() *tally {
	return &tally{vals: map[string]string{}, seen: map[uint64][]uint64{}}
}

func (s *tally) apply(e consensus.Entry) (uint64, system.Result, bool) {
	if len(e.Data) < 8 {
		return 0, system.Result{}, false
	}
	id := binary.BigEndian.Uint64(e.Data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[fmt.Sprintf("k%d", id%4)] += "|" + string(e.Data[8:])
	s.seen[id] = append(s.seen[id], e.Index)
	return id, system.Result{Committed: true}, true
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
	for id, at := range s.seen {
		out[id] = append([]uint64(nil), at...)
	}
	return out
}

// tallyConfig describes a three-member group of tallies on net; dir == ""
// leaves it without checkpoint chains.
func tallyConfig(net *cluster.Network, dir string, ckpt recovery.Options) system.GroupConfig[tally] {
	return system.GroupConfig[tally]{
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
func tallyGroup(t *testing.T, dir string, ckpt recovery.Options) *system.Group[tally] {
	t.Helper()
	net := cluster.NewNetwork(nil)
	g := system.NewGroup(tallyConfig(net, dir, ckpt))
	t.Cleanup(func() {
		g.Close()
		net.Close()
	})
	return g
}

// put proposes n commands and requires each to be applied.
func put(t *testing.T, g *system.Group[tally], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := g.NextID()
		payload := binary.BigEndian.AppendUint64(nil, id)
		if r := g.Propose(id, append(payload, fmt.Sprintf("v%d", id)...)); r.Err != nil || !r.Committed {
			t.Fatalf("propose %d: %+v", id, r)
		}
	}
}

// settle waits until every member in live has applied the same index.
func settle(t *testing.T, g *system.Group[tally], live ...int) uint64 {
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
		for id := uint64(1); id <= 5; id++ {
			if len(seen[id]) == 0 {
				t.Fatalf("replica %d never applied request %d", i, id)
			}
		}
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
// both equal never having crashed.
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
			put(t, g, 10)
			settle(t, g, 0, 1, 2)
			g.Crash(vic)
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
			// Reference: every index a never-crashed member applied each
			// request at. The recovered state machine must have been handed
			// exactly those above the restored height, and none at or below.
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
	id := g.NextID()
	r := g.Propose(id, binary.BigEndian.AppendUint64(nil, id))
	if r.Err == nil || r.Err.Error() != "test: leaderless" || !g.GaveUp(r.Err) {
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
	base := goroutineBaseline()
	net := cluster.NewNetwork(nil)
	g := system.NewGroup(tallyConfig(net, t.TempDir(), recovery.Options{Interval: 2}))
	put(t, g, 4)
	g.Crash(0)
	g.Crash(1)
	if _, err := g.Recover(1); err != nil {
		t.Fatal(err)
	}
	g.Close()
	net.Close()
	assertGoroutinesReturn(t, base)
}

// A closed group stays closed, whatever is called on it afterwards and in
// whatever order. (At the parent Close then Crash closed a member's stop
// channel twice and panicked.)
func TestGroupClosedStaysClosed(t *testing.T) {
	base := goroutineBaseline()
	net := cluster.NewNetwork(nil)
	g := system.NewGroup(tallyConfig(net, t.TempDir(), recovery.Options{Interval: 2}))
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
	assertGoroutinesReturn(t, base)
}
