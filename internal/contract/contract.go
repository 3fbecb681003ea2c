// Package contract implements the deterministic smart-contract engine both
// blockchain models execute. Contracts are Go functions invoked against a
// StateReader through a stub that records read and write sets — exactly the
// simulate interface Fabric chaincode sees — and the identical code path is
// replayed post-order in order-execute systems, where determinism is what
// keeps replicas consistent.
//
// An order-execute replica runs every transaction of every block (a
// four-node Quorum network executes each one five times, the proposer's
// pre-execution included), so what one execution allocates is multiplied
// where a database pays it once. One execution is one allocation, the
// Stub, whether it commits or aborts on a business rule: the keys a
// contract names (Stub.Key) and the values it keeps (PutState) are copied
// into space inside the stub, and a business abort is a package-level
// error. Only what outgrows that space — a 1 KB YCSB value, say — costs an
// allocation of its own, and so does an error that names its key (a
// missing Smallbank account).
package contract

import (
	"errors"
	"fmt"
	"unsafe"

	"dichotomy/internal/txn"
)

// ErrNotFound is returned by Stub.GetState for absent keys.
var ErrNotFound = errors.New("contract: key not found")

// ErrAbort signals a business-rule rejection (e.g. insufficient funds);
// systems count such transactions as application aborts, not conflicts.
var ErrAbort = errors.New("contract: aborted by contract logic")

// StateReader is the view of committed state a contract executes against.
// Implementations return the value and the version that last wrote it.
type StateReader interface {
	GetState(key string) (value []byte, ver txn.Version, err error)
}

// Stub is the contract's handle on state during one invocation. It records
// every read (with its version) and buffers writes; nothing touches the
// store until the system decides to commit the write set.
//
// A stub is one allocation: reads and writes are recorded in slices that
// start out backed by arrays inside the struct, sized for the contracts in
// this tree (Smallbank's widest profile reads 3 and writes 3; a YCSB
// transaction touches 4), and RWSet hands those slices out. The keys Key
// builds and the values PutState copies go into space, inline too, sized
// for the same profiles (amalgamate's three 16-byte keys and three 8-byte
// balances; a 4-key YCSB multi's keys). The space is filled append-only:
// a byte handed out is never written again, and a stub is never reused or
// pooled, so every key and value it hands out stays valid for as long as
// anything holds it (which keeps the stub alive). What does not fit in the
// space left costs one allocation of its own.
type Stub struct {
	state StateReader
	reads []txn.Read
	// writes holds one entry per written key, in first-write order (the
	// order is part of what an endorsement signs). A key is found by
	// scanning; index takes over past indexAfter keys, so an outsized
	// write set costs one map, not a quadratic scan.
	writes []txn.Write
	index  map[string]int

	readBuf  [4]txn.Read
	writeBuf [4]txn.Write

	space [spaceLen]byte
	used  int // bytes of space handed out
}

// spaceLen is the inline space for keys and values; with it a Stub fills
// the 448-byte allocation size class.
const spaceLen = 80

// indexAfter is the write-set size past which Stub looks keys up in a map.
const indexAfter = 16

// NewStub returns a stub over the given committed-state view.
func NewStub(state StateReader) *Stub {
	s := &Stub{state: state}
	s.reads, s.writes = s.readBuf[:0], s.writeBuf[:0]
	return s
}

// take returns n bytes of space no one has been handed, or a fresh slice
// when they do not fit. Its capacity is n, so an append by a holder cannot
// reach bytes handed out after it; with n = 0 it is empty but not nil.
func (s *Stub) take(n int) []byte {
	if s.used+n > spaceLen {
		return make([]byte, n)
	}
	b := s.space[s.used : s.used+n : s.used+n]
	s.used += n
	return b
}

// view returns b as a string without copying it, for the keys Key builds.
// It is sound because every b it is handed comes from take and nothing
// writes into it afterwards: the space is append-only and a stub is never
// reused or pooled. The string shares b's bytes: writing into them,
// anywhere, is undefined behaviour.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Key returns the key prefix+id, built in the stub's space; contracts name
// every key they read or write through it, so the bytes a transaction's
// arguments arrive in are never kept. The string is valid for as long as
// anything holds it.
func (s *Stub) Key(prefix string, id []byte) string {
	b := s.take(len(prefix) + len(id))
	n := copy(b, prefix)
	copy(b[n:], id)
	return view(b)
}

// written returns the position of key in the write set, or -1.
func (s *Stub) written(key string) int {
	if s.index != nil {
		if i, ok := s.index[key]; ok {
			return i
		}
		return -1
	}
	for i := range s.writes {
		if s.writes[i].Key == key {
			return i
		}
	}
	return -1
}

// write binds key to value (nil deletes) in the write set.
func (s *Stub) write(key string, value []byte) {
	if i := s.written(key); i >= 0 {
		s.writes[i].Value = value
		return
	}
	s.writes = append(s.writes, txn.Write{Key: key, Value: value})
	switch {
	case s.index != nil:
		s.index[key] = len(s.writes) - 1
	case len(s.writes) > indexAfter:
		s.index = make(map[string]int, 2*len(s.writes))
		for i := range s.writes {
			s.index[s.writes[i].Key] = i
		}
	}
}

// GetState reads a key, observing earlier writes in the same invocation
// (read-your-writes) and recording the read version otherwise.
func (s *Stub) GetState(key string) ([]byte, error) {
	if i := s.written(key); i >= 0 {
		if v := s.writes[i].Value; v != nil {
			return v, nil
		}
		return nil, ErrNotFound
	}
	v, ver, err := s.state.GetState(key)
	s.reads = append(s.reads, txn.Read{Key: key, Version: ver})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// PutState buffers a write. The value is copied, into the stub's space
// while it fits and into an allocation of its own past that, and the copy
// is never written again; an empty value stays a present, empty value (nil
// is how the write set spells a delete).
func (s *Stub) PutState(key string, value []byte) {
	v := s.take(len(value))
	copy(v, value)
	s.write(key, v)
}

// DelState buffers a deletion.
func (s *Stub) DelState(key string) { s.write(key, nil) }

// RWSet returns the recorded effect of the invocation: the stub's own
// slices, so the invocation is over — the stub must not be used again. It
// drops the state reader: a value the store keeps holds its stub, and must
// not hold the snapshot or block overlay the stub read through as well.
func (s *Stub) RWSet() txn.RWSet {
	s.state = nil
	return txn.RWSet{Reads: s.reads, Writes: s.writes}
}

// Contract is a deterministic state-transition program.
type Contract interface {
	// Name is the registry key used in invocations.
	Name() string
	// Invoke runs method with args against the stub. It must be
	// deterministic: no time, randomness, or I/O beyond the stub.
	Invoke(stub *Stub, method string, args [][]byte) error
}

// Registry maps contract names to implementations; each node holds one.
type Registry struct {
	contracts map[string]Contract
}

// NewRegistry returns a registry preloaded with the given contracts.
func NewRegistry(contracts ...Contract) *Registry {
	r := &Registry{contracts: make(map[string]Contract)}
	for _, c := range contracts {
		r.contracts[c.Name()] = c
	}
	return r
}

// Register adds a contract; last registration wins, as in redeployment.
func (r *Registry) Register(c Contract) { r.contracts[c.Name()] = c }

// Execute runs an invocation against state and returns the read/write set.
func (r *Registry) Execute(state StateReader, inv txn.Invocation) (txn.RWSet, error) {
	c, ok := r.contracts[inv.Contract]
	if !ok {
		return txn.RWSet{}, fmt.Errorf("contract: unknown contract %q", inv.Contract)
	}
	stub := NewStub(state)
	if err := c.Invoke(stub, inv.Method, inv.Args); err != nil {
		return txn.RWSet{}, err
	}
	return stub.RWSet(), nil
}
