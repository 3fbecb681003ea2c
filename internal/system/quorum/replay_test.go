package quorum

import (
	"runtime"
	"testing"
	"time"

	"dichotomy/internal/consensus"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/txn"
	"dichotomy/internal/workload/smallbank"
)

// replayAccounts and replayBlocks × replayBlockTxs shape the benchmark's
// recorded log: a Smallbank load, then Zipf-skewed Smallbank calls (θ = 1,
// as the quorum-smallbank-skew workload draws them) in blocks of
// replayBlockTxs.
const (
	replayAccounts = 500
	replayBlocks   = 20
	replayBlockTxs = 50
)

// replayLog is a recorded consensus log and what the recording node made
// of it.
type replayLog struct {
	nw *Network // closed; its clients, config and tables serve the replay
	// entries is the node's committed log; the first load entries carry the
	// accounts (and the empty entry a new raft leader commits).
	entries []consensus.Entry
	load    int
	txs     int // transactions in entries[load:]
	root    cryptoutil.Hash
	height  uint64
}

// recordLog drives a one-node Raft network with a seeded Smallbank
// workload — the load, then blocks blocks of calls — and keeps its
// committed log. Blocks are cut by count, not by the batch timer: each
// block's transactions enter the proposer's pool at once, with the block
// cap at their number, so one seed always gives the same entries.
func recordLog(tb testing.TB, seed int64, blocks int) *replayLog {
	tb.Helper()
	nw, err := New(Config{Nodes: 1, BlockSize: replayBlockTxs, BlockInterval: time.Millisecond})
	if err != nil {
		tb.Fatal(err)
	}
	defer nw.Close()
	client := cryptoutil.MustNewSigner("replay-client")
	nw.RegisterClient(client.Name(), client.Public())
	cfg := smallbank.Config{Accounts: replayAccounts, Theta: 1, InitialBalance: 1_000_000_000, Seed: seed}
	load, err := cfg.LoadTxs(client)
	if err != nil {
		tb.Fatal(err)
	}
	gen := smallbank.NewGenerator(cfg, client)
	n := nw.nodes[0]
	for deadline := time.Now().Add(10 * time.Second); nw.Leader() < 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatal("no leader elected")
		}
	}
	propose := func(txs []*txn.Tx) {
		for len(txs) > 0 {
			k := min(len(txs), replayBlockTxs)
			want := n.Ledger.Height() + 1
			n.pendingMu.Lock()
			n.pending = append(n.pending, txs[:k]...)
			n.pendingMu.Unlock()
			for deadline := time.Now().Add(10 * time.Second); n.Ledger.Height() < want; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					tb.Fatalf("block %d never sealed", want)
				}
			}
			txs = txs[k:]
		}
	}
	propose(load)
	log := &replayLog{nw: nw, load: int(n.Ledger.Height())}
	var calls []*txn.Tx
	for range blocks * replayBlockTxs {
		t, err := gen.Next()
		if err != nil {
			tb.Fatal(err)
		}
		calls = append(calls, t)
	}
	propose(calls)
	log.txs = len(calls)
	log.height = n.Ledger.Height()
	log.entries = n.cons.Entries(1, nil)
	log.root = n.stateRoot()
	if uint64(len(log.entries)) != log.height {
		tb.Fatalf("the log holds %d entries for a ledger of %d blocks", len(log.entries), log.height)
	}
	return log
}

// replay opens a fresh node and runs entries through its live pipeline
// stages, pulling them from the slice as a consensus.Reader pulls them from
// the log.
func (l *replayLog) replay(n *node, entries []consensus.Entry) {
	next := func(<-chan struct{}) (consensus.Entry, bool) {
		if len(entries) == 0 {
			return consensus.Entry{}, false
		}
		e := entries[0]
		entries = entries[1:]
		return e, true
	}
	n.pipe.Run(next, nil)
}

// check reports whether a replayed node holds the recording node's state.
func (l *replayLog) check(tb testing.TB, n *node) {
	tb.Helper()
	if h := n.Ledger.Height(); h != l.height {
		tb.Fatalf("replayed ledger height %d, recorded %d", h, l.height)
	}
	if root := n.stateRoot(); root != l.root {
		tb.Fatalf("replayed state root %x, recorded %x", root[:8], l.root[:8])
	}
}

// TestReplayEqualsLive replays a recorded log into a fresh node: the
// replica's state equals the recording node's (the check BenchmarkReplay
// makes every iteration), and a replay that drops one entry does not.
func TestReplayEqualsLive(t *testing.T) {
	l := recordLog(t, 1, 6)
	n, err := l.nw.openNode(0)
	if err != nil {
		t.Fatal(err)
	}
	l.replay(n, l.entries)
	l.check(t, n)
	n.Close()

	short, err := l.nw.openNode(0)
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	dropped := append(append([]consensus.Entry(nil), l.entries[:l.load+3]...), l.entries[l.load+4:]...)
	l.replay(short, dropped)
	if root := short.stateRoot(); root == l.root {
		t.Fatal("a replay without one block's entry reached the recorded state root")
	}
}

// BenchmarkReplay is one Quorum replica's cost per transaction over a
// recorded log, with no consensus and no clients: decode, client
// signature check, re-execution, state commit, the root maintainer's trie
// work and signature, and the ledger seal, as the live stages run them.
// The accounts load replays outside the timer; each iteration replays into
// a fresh node and checks that its state root equals the recording node's.
func BenchmarkReplay(b *testing.B) {
	var l *replayLog // recorded once for every b.N the benchmark tries
	b.Run("system=quorum", func(b *testing.B) {
		if l == nil {
			l = recordLog(b, 1, replayBlocks)
		}
		var ms0, ms1 runtime.MemStats
		var allocs, bytes uint64
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			n, err := l.nw.openNode(0)
			if err != nil {
				b.Fatal(err)
			}
			l.replay(n, l.entries[:l.load])
			n.stateRoot() // the load's trie work is done before the timer runs
			runtime.ReadMemStats(&ms0)
			b.StartTimer()
			l.replay(n, l.entries[l.load:])
			n.stateRoot() // the maintainer's hashing of the last block is the replica's cost too
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
			l.check(b, n)
			n.Close()
		}
		per := float64(b.N * l.txs)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/tx")
		b.ReportMetric(float64(allocs)/per, "allocs/tx")
		b.ReportMetric(float64(bytes)/per, "B/tx")
	})
}
