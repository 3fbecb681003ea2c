package quorum

import (
	"fmt"
	"testing"
	"time"
)

// TestNodeDownForTenThousandEntries: a node stays down while 10 000 entries
// commit. Nothing reads for it — its position stays where the crash left
// it — and its consensus member holds every one of them in its log, served
// by index. RecoverNode replays past them to the tip T1, the restarted
// decode stage skips what the replay covered and seals from T1 + 1 on, and
// the node ends where a never-crashed node is: same height, same state
// root, a ledger that verifies.
func TestNodeDownForTenThousandEntries(t *testing.T) {
	const down = 10_000
	nw, client := network(t, Config{Nodes: 3})
	put := func(k string) {
		t.Helper()
		if r := nw.Execute(mustTx(t, client, "put", k, "v-"+k)); !r.Committed {
			t.Fatalf("put %s: %+v", k, r)
		}
	}
	put("before")
	leader := waitLeader(t, nw)
	victim := (leader + 1) % 3
	nw.CrashNode(victim)
	n := nw.nodes[victim]
	crashedAt := n.Delivered.Load()

	// Empty entries, each an empty block on every live node, with a block of
	// writes every 2 000 so that the replay has state to rebuild.
	base := nw.Ledger(leader).Height()
	lead := nw.nodes[leader]
	for i := range down {
		if i%2000 == 0 {
			put(fmt.Sprintf("k%05d", i))
			continue
		}
		if err := lead.cons.Propose(nil); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	for deadline := time.Now().Add(20 * time.Second); nw.Ledger(leader).Height() < base+down; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the leader sealed %d of %d entries", nw.Ledger(leader).Height()-base, down)
		}
	}
	if got := n.Delivered.Load(); got != crashedAt {
		t.Fatalf("the down node's position moved %d → %d: something read its log", crashedAt, got)
	}
	if held := len(n.cons.Entries(crashedAt+1, nil)); held < down {
		t.Fatalf("the down node's member serves %d entries above its position, want ≥ %d", held, down)
	}

	stats, err := nw.RecoverNode(victim, leader, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TipHeight < base+down {
		t.Fatalf("recovery tip T1 = %d, below the %d entries committed while down", stats.TipHeight, base+down)
	}
	put("after")
	h := waitConverged(t, nw, 3)
	if got := nw.Ledger(victim).Height(); got != h || got <= stats.TipHeight {
		t.Fatalf("recovered node at height %d, the others at %d, T1 = %d", got, h, stats.TipHeight)
	}
	if n.Delivered.Load() < h {
		t.Fatalf("the rejoined decode stage is at %d, the log at %d", n.Delivered.Load(), h)
	}
	if nw.StateRoot(victim) != nw.StateRoot(leader) {
		t.Fatal("recovered node's state root differs from the never-crashed leader's")
	}
	if err := nw.Ledger(victim).Verify(); err != nil {
		t.Fatal(err)
	}
}
