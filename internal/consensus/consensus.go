// Package consensus defines the contract every replication protocol in this
// repository satisfies: Raft (CFT), PBFT and IBFT (BFT), and proof-of-work.
// The paper's replication dimension observes that blockchains and databases
// differ in *what* they feed through consensus (transactions vs storage
// operations) but both consume a totally ordered log; this interface is
// that log. A replica keeps its committed entries, and the application
// reads them out by index (Entries, Reader), tracking its own position, as
// etcd/raft's applications do: what nobody has read yet costs nothing but
// the log that holds it anyway.
package consensus

import "errors"

// Entry is one committed payload in the total order.
type Entry struct {
	// Index is the 1-based position in the committed log.
	Index uint64
	// Data is the opaque payload the application proposed.
	Data []byte
	// Term or view/round in which the entry committed; diagnostic.
	Term uint64
}

// ErrNotLeader is returned by Propose on a replica that cannot currently
// sequence proposals and cannot forward them.
var ErrNotLeader = errors.New("consensus: not the leader")

// ErrStopped is returned after Stop.
var ErrStopped = errors.New("consensus: stopped")

// Node is one replica's handle on a consensus group.
type Node interface {
	// Propose submits data for total ordering. Followers forward to the
	// leader where the protocol permits. Delivery is confirmed through
	// Entries, not by Propose returning.
	Propose(data []byte) error
	// Entries appends to buf the committed entries at and above index from
	// that this replica holds, in order and without a gap, and returns it.
	// Their Data aliases the replica's log: readers must not write it.
	Entries(from uint64, buf []Entry) []Entry
	// Notify returns a channel holding one token once an entry has
	// committed since the token was last taken. It is never closed; a
	// replica has one reader waiting on it.
	Notify() <-chan struct{}
	// Committed returns a channel of every committed entry from index 1,
	// closed on Stop. It is Loop.Committed; benchmark/layers.go is its one
	// caller, and it goes once that reads Entries.
	Committed() <-chan Entry
	// IsLeader reports whether this replica currently sequences proposals.
	IsLeader() bool
	// Stop shuts the replica down.
	Stop()
}

// Reader is an application's position in one replica's committed log: the
// next index it reads and a buffer reused across reads. It is not safe
// for concurrent use.
type Reader struct {
	node Node
	next uint64
	buf  []Entry
	at   int // buf[at:] is read from the log, not yet returned
}

// NewReader returns a reader of n's committed log from index from.
func NewReader(n Node, from uint64) *Reader { return &Reader{node: n, next: from} }

// Next returns the entry at the reader's position and moves past it,
// waiting on the node's Notify while there is none. Once stop is closed it
// returns false and moves nowhere.
func (r *Reader) Next(stop <-chan struct{}) (Entry, bool) {
	select {
	case <-stop:
		return Entry{}, false
	default:
	}
	for r.at == len(r.buf) {
		r.buf, r.at = r.node.Entries(r.next, r.buf[:0]), 0
		if len(r.buf) > 0 {
			break
		}
		select {
		case <-stop:
			return Entry{}, false
		case <-r.node.Notify():
		}
	}
	e := r.buf[r.at]
	r.at++
	r.next = e.Index + 1
	return e, true
}
