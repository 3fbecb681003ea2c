package quorum

import (
	"errors"
	"sync/atomic"
	"testing"

	"dichotomy/internal/storage"
)

// failEngine passes reads through and fails every write while armed.
type failEngine struct {
	storage.Engine
	armed atomic.Bool
}

var errInjected = errors.New("injected write failure")

func (f *failEngine) Put(key, value []byte) error {
	if f.armed.Load() {
		return errInjected
	}
	return f.Engine.Put(key, value)
}

func (f *failEngine) Delete(key []byte) error {
	if f.armed.Load() {
		return errInjected
	}
	return f.Engine.Delete(key)
}

// TestCommitFailureSurfacesError is the regression test behind nopanic's
// quorum findings: a state-commit failure must reach the waiting client
// as an error through Seal, and the node must stay alive — before this
// PR it panicked the committer goroutine.
func TestCommitFailureSurfacesError(t *testing.T) {
	var engines []*failEngine
	cfg := Config{Nodes: 3}
	cfg.EngineHook = func(e storage.Engine) storage.Engine {
		fe := &failEngine{Engine: e}
		engines = append(engines, fe)
		return fe
	}
	nw, client := network(t, cfg)

	if r := nw.Execute(mustTx(t, client, "put", "alpha", "1")); !r.Committed {
		t.Fatalf("pre-fault put: %+v", r)
	}

	for _, fe := range engines {
		fe.armed.Store(true)
	}
	r := nw.Execute(mustTx(t, client, "put", "beta", "2"))
	if r.Err == nil {
		t.Fatalf("commit failure not surfaced: %+v", r)
	}
	if r.Committed {
		t.Fatalf("failed commit reported as committed: %+v", r)
	}

	// The node survived the fault: clear it and commit again.
	for _, fe := range engines {
		fe.armed.Store(false)
	}
	if r := nw.Execute(mustTx(t, client, "put", "gamma", "3")); !r.Committed {
		t.Fatalf("post-fault put: %+v", r)
	}
}

// TestRecoveryCommitFailureFailsRecovery: when the engine a recovery
// rebuilds onto rejects the replayed writes, RecoverNode must report it
// and leave the node crashed. Before the shared catch-up the replay
// ignored the stage's commit error and appended the source's block over
// the failed state commit, so the node rejoined with an empty state under
// a full ledger.
func TestRecoveryCommitFailureFailsRecovery(t *testing.T) {
	opened := 0
	cfg := Config{Nodes: 3}
	cfg.EngineHook = func(e storage.Engine) storage.Engine {
		fe := &failEngine{Engine: e}
		opened++
		fe.armed.Store(opened == 4) // the three nodes' engines, then the recovery's
		return fe
	}
	nw, client := network(t, cfg)
	for _, k := range []string{"alpha", "beta", "gamma"} {
		if r := nw.Execute(mustTx(t, client, "put", k, "1")); !r.Committed {
			t.Fatalf("put %s: %+v", k, r)
		}
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
	if !nw.nodes[victim].Crashed() {
		t.Fatal("node rejoined after a failed recovery")
	}
}
