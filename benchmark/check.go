package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"dichotomy/internal/contract"
	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/ledger"
	"dichotomy/internal/state"
	"dichotomy/internal/system"
	"dichotomy/internal/system/tidb"
	"dichotomy/internal/txn"
)

// The correctness gate. It runs once the load has stopped and every
// handle has resolved; the first client to hear of a commit may be ahead
// of the slower replicas, so each check first waits for the replicas to
// reach the same height and only then demands byte equality.

const (
	convergeBudget = 10 * time.Second
	// sampleSize bounds the acknowledged-commit check.
	sampleSize = 256
)

// versioned is one state entry as Dump reports it.
type versioned struct {
	value []byte
	ver   txn.Version
}

// convergeLedgers checks a ledger system: equal heights, every chain
// verifies, the same transactions in every block, byte-identical state
// (values and versions), and — where the system commits to its state —
// equal roots. Head hashes are compared only when root is nil: a system
// with the off-commit-path authenticated state stamps each header with
// whatever root its own maintainer had published by then, so its block
// hashes legitimately differ between replicas (README, Findings).
func convergeLedgers(n int, led func(int) *ledger.Ledger, st func(int) *state.Store, root func(int) cryptoutil.Hash) error {
	ok := waitUntil(convergeBudget, func() bool {
		h := led(0).Height()
		for i := 1; i < n; i++ {
			if led(i).Height() != h {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("ledger heights did not converge: replica 0 at %d", led(0).Height())
	}
	head := led(0).Head()
	if head == nil {
		return fmt.Errorf("replica 0 has an empty ledger")
	}
	ref := map[string]versioned{}
	st(0).Dump(func(key string, value []byte, ver txn.Version) bool {
		ref[key] = versioned{bytes.Clone(value), ver}
		return true
	})
	for i := 0; i < n; i++ {
		if err := led(i).Verify(); err != nil {
			return fmt.Errorf("replica %d ledger: %w", i, err)
		}
		if i == 0 {
			continue
		}
		if h := led(i).Head().Hash(); root == nil && h != head.Hash() {
			return fmt.Errorf("replica %d head %s differs from replica 0 head %s", i, h, head.Hash())
		}
		for b := uint64(1); b <= head.Header.Number; b++ {
			mine, _ := led(i).Block(b)
			ref, _ := led(0).Block(b)
			if mine == nil || ref == nil || mine.Header.TxRoot != ref.Header.TxRoot {
				return fmt.Errorf("replica %d block %d holds different transactions than replica 0", i, b)
			}
		}
		seen, bad := 0, ""
		st(i).Dump(func(key string, value []byte, ver txn.Version) bool {
			seen++
			if r, ok := ref[key]; !ok || r.ver != ver || !bytes.Equal(r.value, value) {
				bad = key
				return false
			}
			return true
		})
		if bad != "" {
			return fmt.Errorf("replica %d state differs from replica 0 at key %q", i, bad)
		}
		if seen != len(ref) {
			return fmt.Errorf("replica %d holds %d keys, replica 0 holds %d", i, seen, len(ref))
		}
		if root != nil && root(i) != root(0) {
			return fmt.Errorf("replica %d state root differs from replica 0", i)
		}
	}
	return nil
}

// convergeRegions checks TiDB: within every region, every replica has
// applied the same raft prefix and holds byte-identical MVCC content
// (full version chains and locks).
func convergeRegions(c *tidb.Cluster) error {
	for r := 0; r < c.Regions(); r++ {
		reps := c.RegionReplicas(r)
		ok := waitUntil(convergeBudget, func() bool {
			for i := 1; i < reps; i++ {
				if c.ReplicaApplied(r, i) != c.ReplicaApplied(r, 0) {
					return false
				}
			}
			return true
		})
		if !ok {
			return fmt.Errorf("region %d replicas did not converge", r)
		}
		ref := c.DumpRegion(r, 0)
		for i := 1; i < reps; i++ {
			got := c.DumpRegion(r, i)
			if len(got) != len(ref) {
				return fmt.Errorf("region %d replica %d holds %d keys, replica 0 holds %d", r, i, len(got), len(ref))
			}
			for k, v := range ref {
				if !bytes.Equal(got[k], v) {
					return fmt.Errorf("region %d replica %d differs from replica 0 at key %q", r, i, k)
				}
			}
		}
	}
	return nil
}

// kvWrites lists the (key, value) pairs a KV update writes.
func kvWrites(t *txn.Tx) [][2][]byte {
	a := t.Invocation.Args
	switch t.Invocation.Method {
	case "put", "modify":
		return [][2][]byte{{a[0], a[1]}}
	case "multi":
		out := make([][2][]byte, 0, len(a)/2)
		for i := 0; i+1 < len(a); i += 2 {
			out = append(out, [2][]byte{a[i], a[i+1]})
		}
		return out
	}
	return nil
}

// verifyKV reads a sample of keys back through Submit and checks each
// against the acknowledgements the clients received: the value must be
// one some request of this run wrote, and it must not be older than the
// key's last acknowledged commit — a writer acknowledged before that
// commit was even submitted has been overwritten and may not reappear.
// Requests that ended without a verdict (failures) may or may not have
// committed, so they are admissible writers but never the yardstick.
func verifyKV(t *target, recs []record) error {
	type writer struct {
		rec   *record
		value []byte
	}
	writers := map[string][]writer{}
	last := map[string]*record{}
	for i := range recs {
		r := &recs[i]
		if isRead(r.tx) || r.out == aborted || r.out == shed {
			continue
		}
		for _, kv := range kvWrites(r.tx) {
			k := string(kv[0])
			writers[k] = append(writers[k], writer{r, kv[1]})
			if r.out == committed && (last[k] == nil || r.end.After(last[k].end)) {
				last[k] = r
			}
		}
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reader, err := cryptoutil.NewSigner("verifier")
	if err != nil {
		return err
	}
	if t.register != nil {
		t.register(reader.Name(), reader.Public())
	}
	stride := max(len(keys)/sampleSize, 1)
	for i := 0; i < len(keys); i += stride {
		k := keys[i]
		get, err := txn.Sign(reader, txn.Invocation{Contract: contract.KVName, Method: "get", Args: [][]byte{[]byte(k)}})
		if err != nil {
			return err
		}
		res := system.ExecuteViaSubmit(t.sys, get)
		if res.Err != nil || !res.Committed {
			return fmt.Errorf("read back %q: committed=%v err=%v", k, res.Committed, res.Err)
		}
		var from *record
		for _, w := range writers[k] {
			if bytes.Equal(w.value, res.Value) {
				from = w.rec
				break
			}
		}
		l := last[k]
		switch {
		case from == nil:
			return fmt.Errorf("key %q holds a value no request of this run wrote, after an acknowledged commit", k)
		case from != l && from.out == committed && from.end.Before(l.start):
			return fmt.Errorf("key %q holds the value of a commit acknowledged %s before its last acknowledged commit was submitted",
				k, l.start.Sub(from.end))
		}
	}
	return nil
}

// verifyLedgerInclusion checks, for workloads whose values are computed
// by the contract, that a sample of acknowledged update commits is in
// replica 0's ledger; convergeLedgers has already shown every replica
// holds the same chain.
func verifyLedgerInclusion(t *target, recs []record) error {
	var want []cryptoutil.Hash
	for i := range recs {
		if r := &recs[i]; r.out == committed && !isRead(r.tx) {
			want = append(want, r.tx.ID)
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("no acknowledged update commit to check")
	}
	l := t.ledger(0)
	inLedger := make(map[cryptoutil.Hash]bool, len(want))
	for n := uint64(1); n <= l.Height(); n++ {
		blk, ok := l.Block(n)
		if !ok {
			return fmt.Errorf("ledger block %d missing", n)
		}
		for _, raw := range blk.Txs {
			tx, err := txn.Unmarshal(raw)
			if err != nil {
				return fmt.Errorf("ledger block %d: %w", n, err)
			}
			inLedger[tx.ID] = true
		}
	}
	stride := max(len(want)/sampleSize, 1)
	for i := 0; i < len(want); i += stride {
		if !inLedger[want[i]] {
			return fmt.Errorf("acknowledged commit %s is not in the ledger", want[i])
		}
	}
	return nil
}
