package quorum

import (
	"errors"
	"fmt"
	"testing"

	"dichotomy/internal/storage"
)

// TestFailedRecoveryRetriesOverTheQueuedStream: a recovery that fails
// leaves the node crashed, and nothing reads its consensus member's commit
// stream while the others commit 50 blocks — the entries queue in the
// member; a retried recovery then replays past them, skips them as they
// come off the queue, and ends where a never-crashed node is.
func TestFailedRecoveryRetriesOverTheQueuedStream(t *testing.T) {
	var engines []*failEngine
	cfg := Config{Nodes: 3}
	cfg.EngineHook = func(e storage.Engine) storage.Engine {
		fe := &failEngine{Engine: e}
		engines = append(engines, fe)
		fe.armed.Store(len(engines) == 4) // the three nodes' engines, then the recovery's
		return fe
	}
	nw, client := network(t, cfg)
	put := func(k string) {
		t.Helper()
		if r := nw.Execute(mustTx(t, client, "put", k, "v-"+k)); !r.Committed {
			t.Fatalf("put %s: %+v", k, r)
		}
	}
	for _, k := range []string{"alpha", "beta", "gamma"} {
		put(k)
	}
	leader := nw.Leader()
	if leader < 0 {
		t.Fatal("no leader after committed blocks")
	}
	victim := (leader + 1) % 3
	nw.CrashNode(victim)
	down := nw.nodes[victim]
	crashedAt := down.Delivered.Load()
	if _, err := nw.RecoverNode(victim, leader, 0); !errors.Is(err, errInjected) {
		t.Fatalf("RecoverNode over a failing engine: %v, want the injected write failure", err)
	}

	base := nw.Ledger(leader).Height()
	for i := 0; nw.Ledger(leader).Height() < base+50; i++ {
		put(fmt.Sprintf("k%03d", i))
	}
	if got := down.Delivered.Load(); got != crashedAt {
		t.Fatalf("down node's position moved %d → %d while it was down: something read its commit stream", crashedAt, got)
	}

	if _, err := nw.RecoverNode(victim, leader, 0); err != nil {
		t.Fatalf("retried recovery: %v", err)
	}
	put("after")
	h := waitConverged(t, nw, 3)
	if got := nw.Ledger(victim).Height(); got != h {
		t.Fatalf("recovered node at height %d, the others at %d", got, h)
	}
	if nw.StateRoot(victim) != nw.StateRoot(leader) {
		t.Fatal("recovered node's state root differs from the never-crashed leader's")
	}
	if err := nw.Ledger(victim).Verify(); err != nil {
		t.Fatal(err)
	}
}
