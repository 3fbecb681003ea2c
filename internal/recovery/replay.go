package recovery

import (
	"fmt"
	"time"

	"dichotomy/internal/ledger"
	"dichotomy/internal/txn"
)

// BlockSource is the replicated history a recovering node replays from: a
// healthy replica's ledger (Fabric, Quorum, BigchainDB's applied log) or
// a shared-log tail (Veritas). Block n's payloads are the marshalled
// transactions of block n, in block order.
type BlockSource interface {
	// Height returns the source's current tip.
	Height() uint64
	// Payloads returns block n's transaction payloads, or false if the
	// source does not have block n (pruned below, or above the tip).
	Payloads(n uint64) ([][]byte, bool)
}

// LedgerSource adapts a hash-chained ledger as a BlockSource.
type LedgerSource struct{ L *ledger.Ledger }

// Height implements BlockSource.
func (s LedgerSource) Height() uint64 { return s.L.Height() }

// Payloads implements BlockSource.
func (s LedgerSource) Payloads(n uint64) ([][]byte, bool) {
	b, ok := s.L.Block(n)
	if !ok {
		return nil, false
	}
	return b.Txs, true
}

// Replay drives blocks (from, src.Height()] through apply, in order, and
// returns how many blocks were replayed. apply closures wrap the live
// pipeline stages, so the recovering node runs the exact validate/apply
// code of normal operation.
func Replay(src BlockSource, from uint64, apply func(n uint64, payloads [][]byte) error) (uint64, error) {
	tip := src.Height()
	replayed := uint64(0)
	for n := from + 1; n <= tip; n++ {
		payloads, ok := src.Payloads(n)
		if !ok {
			return replayed, fmt.Errorf("recovery: source missing block %d (tip %d)", n, tip)
		}
		if err := apply(n, payloads); err != nil {
			return replayed, fmt.Errorf("recovery: replay block %d: %w", n, err)
		}
		replayed++
	}
	return replayed, nil
}

// DecodeTxs decodes a block's payloads, one transaction each, back into
// transactions in block order — the decode half every system's replay
// shares, through the block decoder the live Decode stages use. The
// transactions alias the payloads.
func DecodeTxs(payloads [][]byte) ([]*txn.Tx, error) {
	var b txn.Block
	for i, p := range payloads {
		if err := b.DecodeOne(p); err != nil {
			return nil, fmt.Errorf("recovery: payload %d: %w", i, err)
		}
	}
	return b.Txs, nil
}

// Stats summarizes one recovery: what it started from, how much it
// replayed, and how long each half took. The recovery experiment sweeps
// checkpoint interval × crash height and reports these.
type Stats struct {
	// CheckpointHeight is the height of the checkpoint restored (0 =
	// recovered from genesis).
	CheckpointHeight uint64
	// CheckpointBytes is the restored checkpoint's file size.
	CheckpointBytes int64
	// TipHeight is the source height recovery caught up to.
	TipHeight uint64
	// ReplayedBlocks counts blocks replayed above the checkpoint.
	ReplayedBlocks uint64
	// RestoreDuration is the checkpoint-load time; ReplayDuration the
	// ledger/log replay time.
	RestoreDuration time.Duration
	ReplayDuration  time.Duration
}

// Total returns the end-to-end recovery time.
func (s Stats) Total() time.Duration { return s.RestoreDuration + s.ReplayDuration }
