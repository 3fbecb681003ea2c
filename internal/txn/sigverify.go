package txn

// Batch, cached, and aggregate entry points for transaction signature
// verification. These are the txn-level faces of cryptoutil's sigverify
// layer: block validators hand in whole slices of transactions and get
// back per-tx verdicts identical to the serial VerifyClient /
// VerifyEndorsements loops, with the cost accounted per batch
// (cryptoutil.BatchVerifyOps) or per threshold check
// (cryptoutil.AggregateVerifyOps) instead of per signature.

import (
	"errors"
	"fmt"

	"dichotomy/internal/cryptoutil"
)

// AggregateEndorsement is a leader-signed aggregate over a transaction's
// endorsement signatures: the named leader computed
// commitment = H(sig₁‖…‖sigₙ) over the endorsements in order and signed
// H(endorsementDigest‖commitment). Verifying it costs one curve check
// regardless of the number of endorsers, but trusts the leader to have
// checked the co-signatures; VerifyEndorsementsAggregate falls back to
// per-signature verification whenever the aggregate check fails, so
// per-tx verdicts match the serial path exactly.
type AggregateEndorsement struct {
	Leader string
	Agg    cryptoutil.AggregateSig
}

// Cosign aggregates the transaction's current endorsements under the
// leader's key and attaches the result. The endorsement set must be
// complete first; endorsements added later are not covered.
func (t *Tx) Cosign(leader *cryptoutil.Signer) error {
	if len(t.Endorsements) == 0 {
		return errors.New("txn: cosign with no endorsements")
	}
	cosigs := make([]cryptoutil.Signature, len(t.Endorsements))
	for i, e := range t.Endorsements {
		cosigs[i] = e.Sig
	}
	agg, err := cryptoutil.Cosign(leader, t.EndorsementDigest(), cosigs)
	if err != nil {
		return fmt.Errorf("txn: cosign: %w", err)
	}
	t.AggEndorsement = &AggregateEndorsement{Leader: leader.Name(), Agg: agg}
	return nil
}

// VerifyEndorsementsAggregate checks the endorsement set through the
// attached aggregate: the serial path's structural checks (checkEndorsers),
// then one cryptoutil.VerifyAggregate instead of one
// VerifyDigest per endorsement. A transaction without an aggregate, or
// whose aggregate fails, is verified per-signature instead — the verdict
// is always the serial path's verdict.
func (t *Tx) VerifyEndorsementsAggregate(keys func(peer string) (cryptoutil.PublicKey, bool), need int) error {
	if t.AggEndorsement == nil {
		return t.VerifyEndorsements(keys, need)
	}
	if err := t.checkEndorsers(keys, need); err != nil {
		return err
	}
	leaderPub, ok := keys(t.AggEndorsement.Leader)
	if !ok {
		return fmt.Errorf("txn: unknown aggregation leader %s", t.AggEndorsement.Leader)
	}
	cosigs := make([]cryptoutil.Signature, len(t.Endorsements))
	for i, e := range t.Endorsements {
		cosigs[i] = e.Sig
	}
	if err := cryptoutil.VerifyAggregate(leaderPub, t.EndorsementDigest(), cosigs, t.AggEndorsement.Agg); err != nil {
		// The aggregate cannot name the member that broke it; fall back to
		// per-signature verification for the authoritative verdict.
		return t.VerifyEndorsements(keys, need)
	}
	return nil
}

// VerifyClientCached is VerifyClient through the verified-signature
// cache: the first check of a (client, tx) pair pays the curve math, every
// later check — e.g. each additional endorsing peer authenticating the
// same submission — is a cache hit. Verdicts are identical to
// VerifyClient.
func (t *Tx) VerifyClientCached(pub cryptoutil.PublicKey) error {
	if err := t.checkID(); err != nil {
		return err
	}
	return cryptoutil.VerifyDigestCached(pub, t.ID, t.Sig)
}

// VerifyClientBatch checks the client signatures of a slice of
// transactions in one cryptoutil.VerifyBatch pass and returns one error
// slot per transaction (nil = valid), matching the verdicts of a serial
// VerifyClient loop. Structural failures (unknown client, id mismatch)
// are decided without curve math, exactly as the serial path does.
func VerifyClientBatch(txs []*Tx, keys func(client string) (cryptoutil.PublicKey, bool)) []error {
	errs := make([]error, len(txs))
	checks := make([]cryptoutil.Check, 0, len(txs))
	owner := make([]int, 0, len(txs))
	for i, t := range txs {
		pub, ok := keys(t.Client)
		if !ok {
			errs[i] = fmt.Errorf("txn: unknown client %s", t.Client)
			continue
		}
		if errs[i] = t.checkID(); errs[i] != nil {
			continue
		}
		checks = append(checks, cryptoutil.Check{Pub: pub, Digest: t.ID, Sig: t.Sig})
		owner = append(owner, i)
	}
	applyBatchVerdicts(cryptoutil.VerifyBatch(checks), errs, owner, func(ci int) error {
		return cryptoutil.ErrBadSignature
	})
	return errs
}

// VerifyEndorsementsBatch checks the endorsement sets of a slice of
// transactions in one cryptoutil.VerifyBatch pass and returns one error
// slot per transaction (nil = valid). Per-tx verdicts match a serial
// VerifyEndorsements loop: threshold, unknown-endorser and repeated-
// endorser failures are structural (checkEndorsers, no curve math), and a
// transaction with any bad endorsement signature fails with the first
// offender named.
func VerifyEndorsementsBatch(txs []*Tx, keys func(peer string) (cryptoutil.PublicKey, bool), need int) []error {
	errs := make([]error, len(txs))
	checks := make([]cryptoutil.Check, 0, len(txs)*2)
	owner := make([]int, 0, len(txs)*2)
	peers := make([]string, 0, len(txs)*2)
	for i, t := range txs {
		if errs[i] = t.checkEndorsers(keys, need); errs[i] != nil {
			continue
		}
		digest := t.EndorsementDigest()
		for _, e := range t.Endorsements {
			pub, _ := keys(e.Peer) // known: checkEndorsers passed
			checks = append(checks, cryptoutil.Check{Pub: pub, Digest: digest, Sig: e.Sig})
			owner = append(owner, i)
			peers = append(peers, e.Peer)
		}
	}
	applyBatchVerdicts(cryptoutil.VerifyBatch(checks), errs, owner, func(ci int) error {
		return fmt.Errorf("txn: endorsement by %s: %w", peers[ci], cryptoutil.ErrBadSignature)
	})
	return errs
}

// applyBatchVerdicts maps a VerifyBatch result back onto per-tx error
// slots: each bad check index marks its owning transaction with the error
// built by mkErr, first offender wins (BatchError indices are ascending,
// matching the serial loops' first-failure semantics).
func applyBatchVerdicts(err error, errs []error, owner []int, mkErr func(ci int) error) {
	if err == nil {
		return
	}
	var be *cryptoutil.BatchError
	if !errors.As(err, &be) {
		// VerifyBatch only ever fails with a *BatchError today; treat
		// anything else as fatal for every batched tx rather than letting
		// a bad signature slip through as valid.
		for _, o := range owner {
			if errs[o] == nil {
				errs[o] = err
			}
		}
		return
	}
	for _, ci := range be.Bad {
		if errs[owner[ci]] == nil {
			errs[owner[ci]] = mkErr(ci)
		}
	}
}
