package recovery

import (
	"bytes"
	"fmt"
	"testing"

	"dichotomy/internal/txn"
)

// storeEntries is a store of n keys with 1 KB values, as a chain-seeding
// full's entries.
func storeEntries(n int) []entry {
	out := make([]entry, n)
	for i := range out {
		out[i] = entry{
			key:   fmt.Sprintf("key-%05d", i),
			value: bytes.Repeat([]byte{byte(i)}, 1024),
			ver:   txn.Version{BlockNum: 1, TxNum: uint32(i)},
			live:  true,
		}
	}
	return out
}

// BenchmarkCheckpointWorker is the checkpoint worker's row: one job through
// writeJob over a 2 000-key store of 1 KB values, 100 keys dirtied per
// checkpoint, FullEvery 8, on a chain the benchmark drives the way
// runWorker does. step=delta times the seven deltas of every chain and
// step=fold the eighth job, which writes the complete state; the other
// jobs run with the timer stopped. Each file is fsynced, so ns/op is the
// disk's; allocs/op is the code's, and exact at a fixed -benchtime=Nx.
// Pruning works from the file list the chain keeps, so no job lists the
// directory, and no per-P buffer pool can move the count.
func BenchmarkCheckpointWorker(b *testing.B) {
	const keys, dirty = 2000, 100
	full := storeEntries(keys)
	var sets [8][]entry // dirty sets, reused round-robin so none is built in the loop
	for i := range sets {
		for j := 0; j < dirty; j++ {
			e := full[(i*dirty+j*7)%keys]
			e.value, e.ver = bytes.Repeat([]byte{byte(i)}, 1024), txn.Version{BlockNum: uint64(i + 2)}
			sets[i] = append(sets[i], e)
		}
	}
	for _, kind := range []struct {
		name string
		kind stepKind
	}{{"delta", stepDelta}, {"fold", stepFold}} {
		b.Run("step="+kind.name, func(b *testing.B) {
			opts := Options{Dir: b.TempDir(), Interval: 1, Mode: ModeDelta}
			c := &Checkpointer{chain: chain{opts: opts.withDefaults()}}
			height := uint64(0)
			// next plans, takes and writes the chain's next job.
			next := func() {
				height++
				s := c.chain.plan(height)
				c.chain.advance(s)
				job := deltaJob{step: s, entries: sets[height%8]}
				if s.kind == stepFull {
					job.entries = full
				}
				if _, err := c.writeJob(job); err != nil {
					b.Fatal(err)
				}
			}
			next() // the chain-seeding full
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				if c.chain.plan(height+1).kind != kind.kind {
					b.StopTimer()
					next()
					b.StartTimer()
					continue
				}
				next()
				i++
			}
		})
	}
}
