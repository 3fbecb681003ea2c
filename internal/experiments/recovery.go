package experiments

import (
	"fmt"
	"io"
	"os"
	"time"

	"dichotomy/internal/recovery"
	"dichotomy/internal/system/fabric"
	"dichotomy/internal/workload/ycsb"
)

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
func Recovery(w io.Writer, sc Scale, modes []string, intervals []uint64, fracs []float64) {
	if len(modes) == 0 {
		modes = []string{"full", "delta"}
	}
	if len(intervals) == 0 {
		intervals = []uint64{4, 16}
	}
	if len(fracs) == 0 {
		fracs = []float64{0.5, 1.0}
	}
	Header(w, "Recovery: checkpoint mode × interval × crash height (Fabric, YCSB updates)")
	Row(w, "mode", "interval", "tip", "ckpts", "written-B", "pause-avg",
		"crash@", "ckpt@", "replayed", "chain-B", "restore", "replay", "total", "verified")
	client := Client()
	cfg := ycsb.Config{Records: sc.Records, RecordSize: 100, Theta: 0.6}

	for _, modeName := range modes {
		mode, err := recovery.ParseMode(modeName)
		if err != nil {
			fmt.Fprintf(w, "%v\n", err)
			continue
		}
		for _, interval := range intervals {
			dir, err := os.MkdirTemp("", "dichotomy-recovery-*")
			if err != nil {
				fmt.Fprintf(w, "tempdir: %v\n", err)
				return
			}
			func() {
				defer os.RemoveAll(dir)
				nw, err := fabric.New(fabric.Config{
					Peers:              sc.Nodes,
					EndorsementsNeeded: sc.Nodes - 1,
					DataDir:            dir,
					CheckpointInterval: interval,
					CheckpointMode:     mode,
					CheckpointKeep:     1 << 20, // retain all: the sweep rehearses crashes at every height
				})
				if err != nil {
					fmt.Fprintf(w, "fabric: %v\n", err)
					return
				}
				defer nw.Close()
				nw.RegisterClient(client.Name(), client.Public())
				if err := PreloadYCSB(nw, cfg, client); err != nil {
					fmt.Fprintf(w, "preload: %v\n", err)
					return
				}
				RunYCSB(nw, cfg, sc, 0, client)
				tip, ok := quiesce(sc.Nodes, func(i int) uint64 { return nw.Ledger(i).Height() })
				if !ok {
					fmt.Fprintln(w, "fabric failed to quiesce; skipping interval")
					return
				}

				// Drain the checkpoint worker so the on-disk chain and the
				// byte/pause totals reflect the quiesced store, then read
				// the commit-side costs before the crash discards them.
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

				for _, f := range fracs {
					// Each rehearsal needs its own crash: RecoverPeer hands
					// the peer back to live block consumption, so it is a
					// fully live cluster member again when it returns.
					nw.CrashPeer(crashed)
					crashHeight := uint64(f * float64(tip))
					if crashHeight < 1 {
						crashHeight = 1
					}
					if crashHeight > tip {
						crashHeight = tip
					}
					stats, err := nw.RecoverPeer(crashed, 0, crashHeight)
					if err != nil {
						fmt.Fprintf(w, "recover (mode=%s interval=%d crash=%d): %v\n", mode, interval, crashHeight, err)
						continue
					}
					verified := "ok"
					if !sameStores(nw.State(0), nw.State(crashed)) {
						verified = "DIVERGED"
					}
					if ckptErr != nil {
						// A checkpoint that failed to land shows otherwise
						// only as fewer bytes written and more blocks replayed.
						verified += " checkpoint-error: " + ckptErr.Error()
					}
					Row(w, mode.String(), int(interval), int(tip), ckpts, written, pauseAvg,
						int(crashHeight), int(stats.CheckpointHeight), int(stats.ReplayedBlocks),
						stats.CheckpointBytes, stats.RestoreDuration, stats.ReplayDuration,
						stats.Total(), verified)
				}
			}()
		}
	}
}
