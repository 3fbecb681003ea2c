package experiments

import (
	"os"
	"time"

	"dichotomy/internal/recovery"
	"dichotomy/internal/system"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/workload/ycsb"
)

// RecoveryAxes are Recovery's sweep axes.
type RecoveryAxes struct {
	Modes     []string
	Intervals []uint64
	// Crashes are the crash heights, as fractions of the quiesced tip.
	Crashes []float64
}

// Recovery sweeps checkpoint mode × interval × crash height on a durable
// Fabric network and reports what each point costs on both sides of the
// durability tradeoff:
//
//   - while committing: how many checkpoints were taken, the total bytes
//     they wrote, and the mean commit-path pause per checkpoint — the
//     stall block sealing absorbs. Full mode serializes the whole store
//     synchronously on the committer, so its pause and bytes scale with
//     state size; delta mode copies only the keys dirtied since the last
//     checkpoint and serializes them on a worker goroutine, so at small
//     intervals both columns drop from O(store) to O(block writes).
//   - while recovering: how many blocks the recovering peer replays, how
//     many checkpoint-chain bytes it reads back (full snapshot + delta
//     files), and how long restore and replay take.
//
// For each mode × interval the experiment runs one update-heavy YCSB
// load on a 4-peer network writing checkpoints as it commits, quiesces,
// flushes the checkpoint worker, crashes a peer, and then rehearses
// recovery once per crash-height fraction: crashing at height c means
// only checkpoints at or below c exist, so the peer restores the newest
// chain ≤ c and replays the ledger tail to the tip. Every recovery is
// verified byte-identical (values and versions) against the healthy
// replica before its row prints.
func Recovery(sc Scale, ax RecoveryAxes) []Table {
	t := Table{Title: "Recovery: checkpoint mode × interval × crash height (Fabric, YCSB updates)",
		Cols: []string{"system", "mode", "interval", "tip", "ckpts", "written-B", "pause-avg",
			"crash@", "ckpt@", "replayed", "chain-B", "restore", "replay", "total", "verified"}}
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100, Theta: 0.6}
	for _, modeName := range ax.Modes {
		for _, interval := range ax.Intervals {
			var dir string
			build := func() (system.System, error) {
				mode, err := recovery.ParseMode(modeName)
				if err != nil {
					return nil, err
				}
				if dir, err = os.MkdirTemp("", "dichotomy-recovery-*"); err != nil {
					return nil, err
				}
				return newFabric(fabric.Config{
					Peers:              sc.Nodes,
					EndorsementsNeeded: sc.Nodes - 1,
					DataDir:            dir,
					CheckpointInterval: interval,
					CheckpointMode:     mode,
					CheckpointKeep:     1 << 20, // retain all: the sweep rehearses crashes at every height
				})
			}
			t.measure([]any{modeName, int(interval)}, build, loadYCSB(cfg), func(sys system.System) [][]any {
				return rehearseCrashes(sys.(*fabric.Network), sc, cfg, ax.Crashes)
			})
			os.RemoveAll(dir)
		}
	}
	return []Table{t}
}

// rehearseCrashes runs the load on nw, then crashes and recovers one peer
// once per crash-height fraction, one row each.
func rehearseCrashes(nw *fabric.Network, sc Scale, cfg ycsb.Config, fracs []float64) [][]any {
	runYCSB(nw, cfg, sc, 0)
	tip, ok := quiesce(sc.Nodes, func(i int) uint64 { return nw.Ledger(i).Height() })
	if !ok {
		return [][]any{{"no-quiesce"}}
	}

	// Drain the checkpoint worker so the on-disk chain and the byte/pause
	// totals reflect the quiesced store, then read the commit-side costs
	// before the crash discards them.
	const crashed = 1
	ck := nw.Checkpointer(crashed)
	ck.Flush()
	ckptErr := ck.LastErr()
	ckpts, _, written := ck.Totals()
	_, totalPauseNs := ck.PauseNs()
	pauseAvg := time.Duration(0)
	if ckpts > 0 {
		pauseAvg = time.Duration(totalPauseNs / int64(ckpts))
	}

	var rows [][]any
	for _, f := range fracs {
		// Each rehearsal needs its own crash: RecoverPeer hands the peer
		// back to live block consumption, so it is a fully live cluster
		// member again when it returns.
		nw.CrashPeer(crashed)
		crashHeight := min(max(uint64(f*float64(tip)), 1), tip)
		head := []any{int(tip), ckpts, written, pauseAvg, int(crashHeight)}
		stats, err := nw.RecoverPeer(crashed, 0, crashHeight)
		if err != nil {
			rows = append(rows, append(head, "recover-error", err.Error()))
			continue
		}
		verified := "ok"
		if !sameStores(nw.State(0), nw.State(crashed)) {
			verified = "DIVERGED"
		}
		if ckptErr != nil {
			// A checkpoint that failed to land shows otherwise only as
			// fewer bytes written and more blocks replayed.
			verified += " checkpoint-error: " + ckptErr.Error()
		}
		rows = append(rows, append(head, int(stats.CheckpointHeight), int(stats.ReplayedBlocks),
			stats.CheckpointBytes, stats.RestoreDuration, stats.ReplayDuration, stats.Total(), verified))
	}
	return rows
}
