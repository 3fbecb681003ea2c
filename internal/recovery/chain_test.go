package recovery

import (
	"fmt"
	"testing"
)

// chainModel is the "component" under test: a plain map the test
// mutates between checkpoints.
type chainModel map[string]string

func (m chainModel) dump(emit func(key string, value []byte)) {
	for k, v := range m {
		emit(k, []byte(v))
	}
}

func restoreModel(t *testing.T, w *ChainWriter) chainModel {
	t.Helper()
	got := chainModel{}
	if err := w.Restore(func(key string, value []byte) error {
		got[key] = string(value)
		return nil
	}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return got
}

func requireModel(t *testing.T, got, want chainModel) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("restored %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: restored %q, want %q", k, got[k], v)
		}
	}
}

func TestChainWriterRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeDelta} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, Interval: 1, Keep: 3, Mode: mode, FullEvery: 3}
			w, err := OpenChainWriter(opts)
			if err != nil {
				t.Fatal(err)
			}
			if w.LastHeight() != 0 {
				t.Fatalf("fresh dir has height %d", w.LastHeight())
			}
			model := chainModel{}
			// Mutate and checkpoint across enough heights to cross a
			// delta-mode fold (FullEvery=3) and a deletion.
			for h := uint64(1); h <= 7; h++ {
				model[fmt.Sprintf("k%d", h)] = fmt.Sprintf("v%d", h)
				model["hot"] = fmt.Sprintf("hot%d", h)
				if h == 5 {
					delete(model, "k2")
				}
				if err := w.Checkpoint(h, model.dump); err != nil {
					t.Fatalf("checkpoint %d: %v", h, err)
				}
			}
			// A fresh open restores exactly the final content.
			w2, err := OpenChainWriter(opts)
			if err != nil {
				t.Fatal(err)
			}
			if w2.LastHeight() != 7 {
				t.Fatalf("reopened at height %d, want 7", w2.LastHeight())
			}
			requireModel(t, restoreModel(t, w2), model)

			// The reopened writer continues the chain seamlessly.
			model["k8"] = "v8"
			if err := w2.Checkpoint(8, model.dump); err != nil {
				t.Fatalf("checkpoint 8: %v", err)
			}
			w3, err := OpenChainWriter(opts)
			if err != nil {
				t.Fatal(err)
			}
			requireModel(t, restoreModel(t, w3), model)
		})
	}
}

func TestChainWriterMaybeCheckpointInterval(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenChainWriter(Options{Dir: dir, Interval: 3, Mode: ModeDelta})
	if err != nil {
		t.Fatal(err)
	}
	model := chainModel{"a": "1"}
	for h := uint64(1); h <= 2; h++ {
		if err := w.MaybeCheckpoint(h, model.dump); err != nil {
			t.Fatal(err)
		}
	}
	if w.LastHeight() != 0 {
		t.Fatalf("checkpoint fired below interval: height %d", w.LastHeight())
	}
	if err := w.MaybeCheckpoint(3, model.dump); err != nil {
		t.Fatal(err)
	}
	if w.LastHeight() != 3 {
		t.Fatalf("checkpoint did not fire at interval: height %d", w.LastHeight())
	}
}
