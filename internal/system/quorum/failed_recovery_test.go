package quorum

import (
	"errors"
	"fmt"
	"testing"

	"dichotomy/internal/storage"
)

// TestFailedRecoveryRetriesOverTheLog: a recovery that fails leaves the
// node crashed, and nothing reads its consensus member's log while the
// others commit 50 blocks; a retried recovery then replays past them, its
// decode stage reads on from the entry after the one it last consumed and
// skips them, and it ends where a never-crashed node is. Over IBFT the
// member's log is the decided heights it keeps.
func TestFailedRecoveryRetriesOverTheLog(t *testing.T) {
	t.Run("raft", func(t *testing.T) { failedRecoveryRetries(t, Config{Nodes: 3}) })
	t.Run("ibft", func(t *testing.T) { failedRecoveryRetries(t, Config{Nodes: 4, Consensus: IBFT}) })
}

func failedRecoveryRetries(t *testing.T, cfg Config) {
	var engines []*failEngine
	cfg.EngineHook = func(e storage.Engine) storage.Engine {
		fe := &failEngine{Engine: e}
		engines = append(engines, fe)
		fe.armed.Store(len(engines) == cfg.Nodes+1) // the nodes' engines, then the recovery's
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
	leader := waitLeader(t, nw)
	victim := (leader + 1) % cfg.Nodes
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
		t.Fatalf("down node's position moved %d → %d while it was down: something read its log", crashedAt, got)
	}

	if _, err := nw.RecoverNode(victim, leader, 0); err != nil {
		t.Fatalf("retried recovery: %v", err)
	}
	put("after")
	h := waitConverged(t, nw, cfg.Nodes)
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
