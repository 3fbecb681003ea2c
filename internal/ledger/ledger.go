// Package ledger implements the append-only, hash-chained block ledger —
// the storage abstraction the paper identifies as ubiquitous in
// blockchains and absent from databases. Blocks link by parent hash,
// commit to their transactions with a Merkle root, and optionally commit
// to the resulting state with a state root. The ledger retains all
// history, which is exactly the storage overhead Fig 12 measures.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dichotomy/internal/cryptoutil"
)

// Header is a block header.
type Header struct {
	Number     uint64
	ParentHash cryptoutil.Hash
	TxRoot     cryptoutil.Hash
	StateRoot  cryptoutil.Hash
	// StateRootHeight is the block height StateRoot was computed at.
	// Systems that maintain the state commitment asynchronously
	// (internal/authstate) stamp headers with the latest *published*
	// root, which may trail Number by a bounded number of blocks; a
	// synchronous system sets it equal to Number. Zero means no state
	// commitment (Fabric v2 has no Merkle index).
	StateRootHeight uint64
}

// Block is a header plus its transaction payloads. The ledger is agnostic
// to payload structure; systems serialize their transactions into it.
type Block struct {
	Header Header
	Txs    [][]byte
}

// Hash returns the block's chaining hash (over the header only, as in
// Ethereum — the TxRoot commits to the body).
func (b *Block) Hash() cryptoutil.Hash {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], b.Header.Number)
	binary.BigEndian.PutUint64(buf[8:], b.Header.StateRootHeight)
	return cryptoutil.HashConcat(
		buf[:],
		b.Header.ParentHash[:],
		b.Header.TxRoot[:],
		b.Header.StateRoot[:],
	)
}

// ComputeTxRoot returns the Merkle root over the transaction payloads.
func ComputeTxRoot(txs [][]byte) cryptoutil.Hash {
	leaves := make([]cryptoutil.Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = cryptoutil.HashBytes(tx)
	}
	return cryptoutil.MerkleRoot(leaves)
}

// StorageSize returns the block's serialized footprint: header plus
// payloads. Fig 12's "Fabric-block" series sums this.
func (b *Block) StorageSize() int64 {
	size := int64(8 + 8 + 32*3 + 32) // header + own hash
	for _, tx := range b.Txs {
		size += int64(len(tx)) + 4
	}
	return size
}

// ErrBroken is returned by Verify when the chain's links don't hold.
var ErrBroken = errors.New("ledger: chain verification failed")

// Ledger is an in-order block store. Safe for concurrent use.
type Ledger struct {
	mu     sync.RWMutex
	blocks []*Block
	byHash map[cryptoutil.Hash]*Block
	tip    cryptoutil.Hash // hash of the last block; zero when empty
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{byHash: make(map[cryptoutil.Hash]*Block)}
}

// Seal builds the next block over txs and appends it: number, parent link
// and transaction root are computed here, once, so there is nothing to
// verify and nothing that can fail. It is the path for a block this
// ledger's owner assembled itself — a replica sealing what it has just
// validated. Blocks built elsewhere go through Append, which checks them.
// The ledger keeps txs; the caller must not modify it afterwards.
func (l *Ledger) Seal(txs [][]byte, stateRoot cryptoutil.Hash, stateRootHeight uint64) *Block {
	root := ComputeTxRoot(txs) // hashes every payload: outside the lock
	l.mu.Lock()
	defer l.mu.Unlock()
	b := &Block{
		Header: Header{
			Number:          uint64(len(l.blocks) + 1),
			ParentHash:      l.tip,
			TxRoot:          root,
			StateRoot:       stateRoot,
			StateRootHeight: stateRootHeight,
		},
		Txs: txs,
	}
	l.link(b)
	return b
}

// Append adds a block built elsewhere — a recovery copy, a replayed block.
// The block's number and parent hash must continue the chain; the
// transaction root must match the body.
func (l *Ledger) Append(b *Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	wantNum := uint64(len(l.blocks) + 1)
	if b.Header.Number != wantNum {
		return fmt.Errorf("%w: block number %d, want %d", ErrBroken, b.Header.Number, wantNum)
	}
	if b.Header.ParentHash != l.tip {
		return fmt.Errorf("%w: parent hash mismatch at block %d", ErrBroken, b.Header.Number)
	}
	if ComputeTxRoot(b.Txs) != b.Header.TxRoot {
		return fmt.Errorf("%w: tx root mismatch at block %d", ErrBroken, b.Header.Number)
	}
	l.link(b)
	return nil
}

// link stores a block whose header is known to continue the chain. Callers
// hold l.mu.
func (l *Ledger) link(b *Block) {
	l.tip = b.Hash()
	l.blocks = append(l.blocks, b)
	l.byHash[l.tip] = b
}

// Height returns the number of blocks.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.blocks))
}

// Block returns the block at the given 1-based number.
func (l *Ledger) Block(number uint64) (*Block, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if number < 1 || number > uint64(len(l.blocks)) {
		return nil, false
	}
	return l.blocks[number-1], true
}

// ByHash returns the block with the given hash.
func (l *Ledger) ByHash(h cryptoutil.Hash) (*Block, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	b, ok := l.byHash[h]
	return b, ok
}

// Head returns the latest block, or nil for an empty ledger.
func (l *Ledger) Head() *Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.blocks) == 0 {
		return nil
	}
	return l.blocks[len(l.blocks)-1]
}

// Verify re-checks every hash link and transaction root; it is the
// tamper-evidence property in executable form.
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var parent cryptoutil.Hash
	for i, b := range l.blocks {
		if b.Header.Number != uint64(i+1) {
			return fmt.Errorf("%w: numbering at %d", ErrBroken, i+1)
		}
		if b.Header.ParentHash != parent {
			return fmt.Errorf("%w: link at block %d", ErrBroken, i+1)
		}
		if ComputeTxRoot(b.Txs) != b.Header.TxRoot {
			return fmt.Errorf("%w: tx root at block %d", ErrBroken, i+1)
		}
		parent = b.Hash()
	}
	return nil
}

// StorageSize sums every block's footprint — the ledger's total storage
// cost (Fig 12).
func (l *Ledger) StorageSize() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var total int64
	for _, b := range l.blocks {
		total += b.StorageSize()
	}
	return total
}

// ProveTx returns a Merkle proof that the tx at index txIdx of block
// number is included in that block.
func (l *Ledger) ProveTx(number uint64, txIdx int) (cryptoutil.MerkleProof, bool) {
	b, ok := l.Block(number)
	if !ok || txIdx < 0 || txIdx >= len(b.Txs) {
		return cryptoutil.MerkleProof{}, false
	}
	leaves := make([]cryptoutil.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		leaves[i] = cryptoutil.HashBytes(tx)
	}
	return cryptoutil.BuildMerkleProof(leaves, txIdx)
}

// VerifyTxProof checks a transaction inclusion proof against a block's
// transaction root.
func VerifyTxProof(txRoot cryptoutil.Hash, tx []byte, proof cryptoutil.MerkleProof) bool {
	return cryptoutil.VerifyMerkleProof(txRoot, cryptoutil.HashBytes(tx), proof)
}
