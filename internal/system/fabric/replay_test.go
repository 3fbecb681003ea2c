package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/sharedlog"
	"dichotomy/internal/system"
	"dichotomy/internal/txn"
)

// The recorded log: replayRecords keys, loaded replayBlockTxs to a block,
// then blocks (replayBlocks in the benchmark) of replayBlockTxs single-key
// modifies of 1 000-byte values (the fabric-update shape), no key twice in
// one block, so every transaction validates whatever order the orderers
// give a block.
const (
	replayRecords  = 200
	replayBlocks   = 40
	replayBlockTxs = 10
	replayValue    = 1000
)

// replayLog is a recorded ordering log and what the recording peer made of
// it.
type replayLog struct {
	nw      *Network // closed; its clients, keys and config serve the replay
	batches []sharedlog.Batch
	load    int // batches[:load] carry the records' load
	txs     int // transactions in batches[load:]
	state   map[string]string
	head    cryptoutil.Hash
}

// recordLog drives a Fabric network (four peers, three orderers, the
// default all-peer endorsement policy) with a seeded workload — the load,
// then blocks blocks of modifies — and keeps the ordering service's
// batches. Blocks are cut by count, not by the batch timer: a block's
// transactions are submitted together to a service that cuts at their
// number, and the next block's only once every peer has sealed it, so each
// endorsement reads the state after the block before.
func recordLog(tb testing.TB, seed int64, blocks int) *replayLog {
	tb.Helper()
	nw, err := New(Config{Peers: 4, Orderers: 3, BlockSize: replayBlockTxs, BlockTimeout: time.Minute})
	if err != nil {
		tb.Fatal(err)
	}
	defer nw.Close()
	client := cryptoutil.MustNewSigner("replay-client")
	nw.RegisterClient(client.Name(), client.Public())
	rng := rand.New(rand.NewSource(seed))
	sign := func(method string, key int) *txn.Tx {
		value := make([]byte, replayValue)
		rng.Read(value)
		t, err := txn.Sign(client, txn.Invocation{Contract: contract.KVName, Method: method, Args: [][]byte{[]byte(fmt.Sprintf("user%09d", key)), value}})
		if err != nil {
			tb.Fatal(err)
		}
		return t
	}
	var sealed uint64
	block := func(txs []*txn.Tx) {
		handles := make([]*system.Handle, len(txs))
		for i, t := range txs {
			if handles[i], err = nw.Submit(tb.Context(), t); err != nil {
				tb.Fatal(err)
			}
		}
		for i, h := range handles {
			if r := h.Wait(tb.Context()); !r.Committed {
				tb.Fatalf("tx %d: %+v", i, r)
			}
		}
		sealed++
		deadline := time.Now().Add(10 * time.Second)
		for _, p := range nw.peers {
			for p.Ledger.Height() < sealed {
				if time.Now().After(deadline) {
					tb.Fatalf("%s never sealed block %d", p.name, sealed)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	for k := 0; k < replayRecords; k += replayBlockTxs {
		txs := make([]*txn.Tx, replayBlockTxs)
		for i := range txs {
			txs[i] = sign("put", k+i)
		}
		block(txs)
	}
	l := &replayLog{nw: nw, load: int(nw.peers[0].Ledger.Height())}
	for range blocks {
		txs := make([]*txn.Tx, replayBlockTxs)
		for i, key := range rng.Perm(replayRecords)[:replayBlockTxs] {
			txs[i] = sign("modify", key)
		}
		block(txs)
		l.txs += len(txs)
	}
	p := nw.peers[0]
	c := nw.ordering.Subscribe(1)
	defer c.Close()
	for uint64(len(l.batches)) < p.Ledger.Height() {
		b, ok := c.Next(nil)
		if !ok {
			tb.Fatal("the ordering service stopped")
		}
		if len(b.Records) != replayBlockTxs {
			tb.Fatalf("batch %d holds %d records, want %d", b.Seq, len(b.Records), replayBlockTxs)
		}
		l.batches = append(l.batches, b)
	}
	l.state, l.head = dump(p), p.Ledger.Head().Hash()
	return l
}

// dump is a peer's state, each key's value and version.
func dump(p *peer) map[string]string {
	m := make(map[string]string)
	p.St.Dump(func(key string, value []byte, ver txn.Version) bool {
		m[key] = fmt.Sprintf("%x@%d.%d", value, ver.BlockNum, ver.TxNum)
		return true
	})
	return m
}

// replay runs batches through p's live pipeline stages, pulling them from
// the slice as a sharedlog.Consumer pulls them from the service.
func (l *replayLog) replay(p *peer, batches []sharedlog.Batch) {
	next := func(<-chan struct{}) (sharedlog.Batch, bool) {
		if len(batches) == 0 {
			return sharedlog.Batch{}, false
		}
		b := batches[0]
		batches = batches[1:]
		return b, true
	}
	p.pipe.Run(next, nil)
}

// open is a fresh peer that validates as the recording network's peers do.
func (l *replayLog) open(tb testing.TB) *peer {
	tb.Helper()
	p, err := l.nw.openPeer("replay", l.nw.peers[0].signer)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// check reports whether a replayed peer holds the recording peer's state
// and ledger head.
func (l *replayLog) check(tb testing.TB, p *peer) {
	tb.Helper()
	got := dump(p)
	if len(got) != len(l.state) {
		tb.Fatalf("replayed state holds %d keys, recorded %d", len(got), len(l.state))
	}
	for k, v := range l.state {
		if got[k] != v {
			tb.Fatalf("replayed %s = %.24s…, recorded %.24s…", k, got[k], v)
		}
	}
	if head := p.Ledger.Head().Hash(); !bytes.Equal(head[:], l.head[:]) {
		tb.Fatalf("replayed ledger head %x, recorded %x", head[:8], l.head[:8])
	}
}

// TestReplayEqualsLive replays a recorded log into a fresh peer: its state
// and ledger head equal the recording peer's (the check BenchmarkReplay
// makes every iteration), and a replay that drops one batch does not.
func TestReplayEqualsLive(t *testing.T) {
	l := recordLog(t, 1, 6)
	p := l.open(t)
	l.replay(p, l.batches)
	l.check(t, p)
	p.Close()

	short := l.open(t)
	defer short.Close()
	dropped := append(append([]sharedlog.Batch(nil), l.batches[:l.load+3]...), l.batches[l.load+4:]...)
	l.replay(short, dropped)
	if got := dump(short); fmt.Sprint(got) == fmt.Sprint(l.state) {
		t.Fatal("a replay without one batch reached the recorded state")
	}
}

// BenchmarkReplay is one Fabric peer's cost per transaction over a recorded
// ordering log, with no ordering service, endorsers or clients: decode,
// endorsement signature checks, MVCC validation, state commit and the
// ledger seal, as the live stages run them. The load replays outside the
// timer; each iteration replays into a fresh peer and checks its state and
// ledger head against the recording peer's.
func BenchmarkReplay(b *testing.B) {
	var l *replayLog // recorded once for every b.N the benchmark tries
	b.Run("system=fabric", func(b *testing.B) {
		if l == nil {
			l = recordLog(b, 1, replayBlocks)
		}
		var ms0, ms1 runtime.MemStats
		var allocs, bytes uint64
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			b.StopTimer()
			p := l.open(b)
			l.replay(p, l.batches[:l.load])
			runtime.ReadMemStats(&ms0)
			b.StartTimer()
			l.replay(p, l.batches[l.load:])
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
			l.check(b, p)
			p.Close()
		}
		per := float64(b.N * l.txs)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/tx")
		b.ReportMetric(float64(allocs)/per, "allocs/tx")
		b.ReportMetric(float64(bytes)/per, "B/tx")
	})
}
