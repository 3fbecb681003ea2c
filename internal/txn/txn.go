// Package txn defines the transaction model shared by the blockchain and
// database systems: signed client requests, read/write sets with versions
// (the currency of optimistic validation), and wire encoding. The paper's
// replication dimension turns on what gets replicated — blockchains
// replicate these transactions whole, databases replicate only the storage
// writes they produce — so both representations live here.
//
// A ledger replica decodes each block into a Block it reuses: Reset keeps
// the Block's slabs (the Tx structs, their slices) and its table of
// interned names for the next block, and zeroes the views the last one
// handed out. What a decode leaves the replica is what it keeps: Raw, which
// its ledger seals, and a string for the names the table does not hold — a
// client, contract, method, endorser or key is copied out the first time a
// Block meets it and is that same string every time after, up to the
// table's bound (internCap names of at most internMaxLen bytes each).
package txn

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/metrics"
)

// Version identifies the transaction that last wrote a key: the block that
// carried it and its offset inside the block. Fabric's MVCC validation
// compares these.
type Version struct {
	BlockNum uint64
	TxNum    uint32
}

// Less orders versions chronologically.
func (v Version) Less(o Version) bool {
	if v.BlockNum != o.BlockNum {
		return v.BlockNum < o.BlockNum
	}
	return v.TxNum < o.TxNum
}

// Read is one entry of a read set: the key and the version observed during
// simulation.
type Read struct {
	Key     string
	Version Version
}

// Write is one entry of a write set. A nil Value deletes the key.
type Write struct {
	Key   string
	Value []byte
}

// RWSet is the effect summary a simulated transaction produces.
type RWSet struct {
	Reads  []Read
	Writes []Write
}

// Invocation names a contract call: which contract, method, and arguments.
type Invocation struct {
	Contract string
	Method   string
	Args     [][]byte
}

// Tx is a client transaction travelling through a system. The same struct
// serves both blockchain flavours: order-execute systems carry the
// Invocation and execute it post-order; execute-order-validate systems
// additionally carry the simulated RWSet and endorsements.
type Tx struct {
	// ID is the content hash assigned at signing time.
	ID cryptoutil.Hash
	// Client is the submitting identity's name.
	Client string
	// Invocation is the contract call.
	Invocation Invocation
	// RWSet is filled by simulation in execute-order-validate systems.
	RWSet RWSet
	// Endorsements holds peer signatures over the simulation result.
	Endorsements []Endorsement
	// AggEndorsement, when present, is a leader-signed aggregate over the
	// endorsement signatures (aggregate-endorsement mode); committers can
	// then verify one threshold check per tx instead of one per endorser.
	AggEndorsement *AggregateEndorsement
	// Sig is the client's signature over the invocation.
	Sig cryptoutil.Signature
	// Trace carries phase timings for the latency-breakdown experiments.
	// It never crosses the (simulated) wire.
	Trace *metrics.Trace
}

// Endorsement is one peer's signature over a transaction's simulated
// effect.
type Endorsement struct {
	Peer string
	Sig  cryptoutil.Signature
}

// appendInvocation appends the canonical bytes a client signs.
func appendInvocation(out []byte, client string, inv Invocation) []byte {
	out = appendStr(out, client)
	out = appendStr(out, inv.Contract)
	out = appendStr(out, inv.Method)
	out = appendCount(out, len(inv.Args))
	for _, a := range inv.Args {
		out = appendBytes(out, a)
	}
	return out
}

func appendStr(dst []byte, s string) []byte {
	dst = appendCount(dst, len(s))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendCount(dst, len(b))
	return append(dst, b...)
}

func appendCount(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// scratch pools the buffers digests are built in. A digest's input (a
// transaction's invocation, or its ID and read/write set) is serialized
// into one and hashed in place, so a steady-state digest allocates nothing.
// The buffer is pooled rather than the hasher: writing piecewise into a
// hash.Hash makes every length prefix escape to the heap.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch keeps a transaction with an outsized argument from
// pinning its buffer in the pool for the life of the process.
const maxPooledScratch = 1 << 16

// hashScratch hashes what build appends to a pooled buffer.
func hashScratch(build func(buf []byte) []byte) cryptoutil.Hash {
	bp := scratch.Get().(*[]byte)
	buf := build((*bp)[:0])
	h := cryptoutil.HashBytes(buf)
	if cap(buf) <= maxPooledScratch {
		*bp = buf
	}
	scratch.Put(bp)
	return h
}

// invocationID is the content hash a client signs and a transaction is
// known by.
func invocationID(client string, inv Invocation) cryptoutil.Hash {
	return hashScratch(func(buf []byte) []byte { return appendInvocation(buf, client, inv) })
}

// Sign creates a signed transaction for the invocation.
func Sign(signer *cryptoutil.Signer, inv Invocation) (*Tx, error) {
	id := invocationID(signer.Name(), inv)
	sig, err := signer.SignDigest(id)
	if err != nil {
		return nil, fmt.Errorf("txn: sign: %w", err)
	}
	return &Tx{
		ID:         id,
		Client:     signer.Name(),
		Invocation: inv,
		Sig:        sig,
		Trace:      metrics.NewTrace(),
	}, nil
}

// checkID recomputes the content hash and compares it with the ID the
// transaction claims — the structural half of client verification, decided
// without curve math.
func (t *Tx) checkID() error {
	if invocationID(t.Client, t.Invocation) != t.ID {
		return fmt.Errorf("txn: id mismatch")
	}
	return nil
}

// VerifyClient checks the client signature against the invocation content.
func (t *Tx) VerifyClient(pub cryptoutil.PublicKey) error {
	if err := t.checkID(); err != nil {
		return err
	}
	return cryptoutil.VerifyDigest(pub, t.ID, t.Sig)
}

// EndorsementDigest is what peers sign: the tx id bound to the simulated
// effect.
func (t *Tx) EndorsementDigest() cryptoutil.Hash {
	return EndorsementDigestOf(t.ID, t.RWSet)
}

// EndorsementDigestOf is the endorsement digest of transaction id with
// effect rw — what an endorsing peer signs for a read/write set it has
// just simulated and the transaction does not carry yet.
func EndorsementDigestOf(id cryptoutil.Hash, rw RWSet) cryptoutil.Hash {
	return hashScratch(func(out []byte) []byte {
		out = append(out, id[:]...)
		for _, r := range rw.Reads {
			out = appendStr(out, r.Key)
			out = binary.BigEndian.AppendUint64(out, r.Version.BlockNum)
			out = binary.BigEndian.AppendUint32(out, r.Version.TxNum)
		}
		for _, w := range rw.Writes {
			out = appendStr(out, w.Key)
			out = appendBytes(out, w.Value)
		}
		return out
	})
}

// Endorse adds a peer signature over the current RWSet.
func (t *Tx) Endorse(peer *cryptoutil.Signer) error {
	sig, err := peer.SignDigest(t.EndorsementDigest())
	if err != nil {
		return err
	}
	t.Endorsements = append(t.Endorsements, Endorsement{Peer: peer.Name(), Sig: sig})
	return nil
}

// checkEndorsers is the structural half of endorsement verification,
// decided without curve math and shared by the serial, batch and aggregate
// paths so their verdicts cannot drift: at least need endorsements, each by
// a known peer, no peer twice. Every endorsement must pass, so the distinct
// known endorsers number len(t.Endorsements) ≥ need; without the repeat
// check one peer's signature, copied, would satisfy an N-of-N policy. The
// pairwise scan stops at the first unknown or repeated peer, so it never
// runs past the number of known peers however long the list is.
func (t *Tx) checkEndorsers(keys func(peer string) (cryptoutil.PublicKey, bool), need int) error {
	if len(t.Endorsements) < need {
		return fmt.Errorf("txn: %d endorsements, need %d", len(t.Endorsements), need)
	}
	for i, e := range t.Endorsements {
		if _, ok := keys(e.Peer); !ok {
			return fmt.Errorf("txn: unknown endorser %s", e.Peer)
		}
		for _, prev := range t.Endorsements[:i] {
			if prev.Peer == e.Peer {
				return fmt.Errorf("txn: duplicate endorser %s", e.Peer)
			}
		}
	}
	return nil
}

// VerifyEndorsements checks that at least need distinct known peers
// endorsed the transaction and verifies every endorsement signature using
// the provided key lookup.
func (t *Tx) VerifyEndorsements(keys func(peer string) (cryptoutil.PublicKey, bool), need int) error {
	if err := t.checkEndorsers(keys, need); err != nil {
		return err
	}
	digest := t.EndorsementDigest()
	for _, e := range t.Endorsements {
		pub, _ := keys(e.Peer) // known: checkEndorsers passed
		if err := cryptoutil.VerifyDigest(pub, digest, e.Sig); err != nil {
			return fmt.Errorf("txn: endorsement by %s: %w", e.Peer, err)
		}
	}
	return nil
}

// Size is the transaction's wire footprint, EncodedLen: what a consensus
// entry carrying it adds to a message's size.
func (t *Tx) Size() int { return t.EncodedLen() }
