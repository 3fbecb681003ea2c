package main

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dichotomy/internal/contract"
	"dichotomy/internal/ingress"
	"dichotomy/internal/mvcc"
	"dichotomy/internal/occ"
	"dichotomy/internal/storage"
	"dichotomy/internal/system"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/twopc"
)

func TestClassify(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("node 3: %w", err) }
	cases := []struct {
		name string
		in   system.Result
		want outcome
	}{
		{"commit", system.Result{Committed: true}, committed},
		{"reason alone is an abort", system.Result{Reason: occ.ReadWriteConflict}, aborted},
		{"reason wins over err (tidb returns both)", system.Result{Reason: occ.WriteWriteConflict, Err: wrap(tidb.ErrConflict)}, aborted},
		{"reason wins over an infrastructure err", system.Result{Reason: occ.InconsistentRead, Err: errors.New("ledger append")}, aborted},
		{"business rule in err", system.Result{Err: wrap(contract.ErrAbort)}, aborted},
		{"read hit a lock", system.Result{Err: wrap(mvcc.ErrLocked)}, aborted},
		{"write conflict in err", system.Result{Err: wrap(mvcc.ErrWriteConflict)}, aborted},
		{"tidb conflict in err", system.Result{Err: wrap(tidb.ErrConflict)}, aborted},
		{"2pc abort in err", system.Result{Err: wrap(twopc.ErrAborted)}, aborted},
		{"admission rejection", system.Result{Err: wrap(ingress.ErrOverloaded)}, shed},
		{"client timeout", system.Result{Err: errClientTimeout}, failed},
		{"cancelled wait", system.Result{Err: context.DeadlineExceeded}, failed},
		{"closed engine", system.Result{Err: wrap(storage.ErrClosed)}, failed},
		{"anything else", system.Result{Err: errors.New("fabric: commit timeout")}, failed},
		{"no verdict and no error", system.Result{}, failed},
	}
	for _, c := range cases {
		if got := classify(c.in); got != c.want {
			t.Errorf("%s: classify = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRetryableOnlyForTheCrashRace(t *testing.T) {
	if !retryable(system.Result{Err: fmt.Errorf("endorse: %w", storage.ErrClosed)}) {
		t.Error("an endorsement on a closed engine must be retryable")
	}
	for _, r := range []system.Result{
		{Committed: true},
		{Err: errClientTimeout},
		{Err: ingress.ErrOverloaded},
		{Reason: occ.ReadWriteConflict, Err: storage.ErrClosed},
	} {
		if retryable(r) {
			t.Errorf("%+v must not be retryable", r)
		}
	}
}
