package quorum

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dichotomy/internal/storage"
)

// TestFailedRecoveryRestartsDrain: a recovery that fails leaves the node
// crashed with its drain running again, so its consensus member's commit
// stream keeps being read while the others commit; a retried recovery then
// ends where a never-crashed node is. Before the fix the failed recovery
// left the drain halted, and the down node's position stopped.
func TestFailedRecoveryRestartsDrain(t *testing.T) {
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
	if _, err := nw.RecoverNode(victim, leader, 0); !errors.Is(err, errInjected) {
		t.Fatalf("RecoverNode over a failing engine: %v, want the injected write failure", err)
	}

	base := nw.Ledger(leader).Height()
	for i := 0; nw.Ledger(leader).Height() < base+50; i++ {
		put(fmt.Sprintf("k%03d", i))
	}
	// The down node's drain reads every entry the leader commits: its
	// position follows the leader's.
	deadline := time.Now().Add(10 * time.Second)
	for down, up := nw.nodes[victim], nw.nodes[leader]; down.Delivered.Load() < up.Delivered.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("down node at index %d, the leader at %d, %d blocks after the failed recovery: its commit stream is not read",
				down.Delivered.Load(), up.Delivered.Load(), nw.Ledger(leader).Height()-base)
		}
		time.Sleep(5 * time.Millisecond)
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
