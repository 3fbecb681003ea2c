package main

import (
	"errors"

	"dichotomy/internal/contract"
	"dichotomy/internal/ingress"
	"dichotomy/internal/mvcc"
	"dichotomy/internal/occ"
	"dichotomy/internal/storage"
	"dichotomy/internal/system"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/twopc"
)

// outcome is what one request came to, from the client's side.
type outcome uint8

const (
	// pending marks a record whose waiter has not written it yet.
	pending outcome = iota
	committed
	// aborted is a transaction-level verdict: the system ran the
	// transaction and decided against it.
	aborted
	// shed is an admission rejection: the transaction never ran.
	shed
	// failed is everything else, including the client's own timeout. A
	// failed or shed request misses every latency bound.
	failed
)

// errClientTimeout is the Err of a request the client gave up on.
var errClientTimeout = errors.New("benchmark: no outcome within the client timeout")

// abortErrors are the sentinels that carry a transaction-level verdict in
// Result.Err with Reason left at occ.OK: Quorum surfaces business-rule
// aborts and TiDB read-lock aborts this way (README, Findings).
var abortErrors = []error{
	contract.ErrAbort, mvcc.ErrLocked, mvcc.ErrWriteConflict, tidb.ErrConflict, twopc.ErrAborted,
}

// classify maps a Result to an outcome. Reason is checked before Err
// because TiDB returns both on a conflict.
func classify(r system.Result) outcome {
	if r.Reason != occ.OK {
		return aborted
	}
	if r.Err == nil {
		if r.Committed {
			return committed
		}
		return failed // no verdict, no error: a broken contract, not an abort
	}
	for _, sentinel := range abortErrors {
		if errors.Is(r.Err, sentinel) {
			return aborted
		}
	}
	if errors.Is(r.Err, ingress.ErrOverloaded) {
		return shed
	}
	return failed
}

// retryable reports whether a failed request may be re-submitted once:
// an endorsement that raced CrashPeer reads a closed engine, the
// transaction was never ordered, and a real client would simply send it
// again (README, Findings). Retries are counted in client.retries.
func retryable(r system.Result) bool {
	return r.Reason == occ.OK && errors.Is(r.Err, storage.ErrClosed)
}
