package txn

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dichotomy/internal/cryptoutil"
)

// endorsedTx builds a signed, simulated, endorsed transaction; amt varies
// the content so IDs stay distinct.
func endorsedTx(t *testing.T, client *cryptoutil.Signer, peers []*cryptoutil.Signer, amt int) *Tx {
	t.Helper()
	tx, err := Sign(client, Invocation{
		Contract: "kv",
		Method:   "put",
		Args:     [][]byte{[]byte(fmt.Sprintf("key-%d", amt)), []byte(fmt.Sprintf("val-%d", amt))},
	})
	if err != nil {
		t.Fatal(err)
	}
	tx.RWSet = RWSet{Writes: []Write{{Key: fmt.Sprintf("key-%d", amt), Value: []byte(fmt.Sprintf("val-%d", amt))}}}
	for _, p := range peers {
		if err := tx.Endorse(p); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

func peerSet(t *testing.T, n int) ([]*cryptoutil.Signer, func(string) (cryptoutil.PublicKey, bool)) {
	t.Helper()
	peers := make([]*cryptoutil.Signer, n)
	keys := make(map[string]cryptoutil.PublicKey, n)
	for i := range peers {
		peers[i] = cryptoutil.MustNewSigner(fmt.Sprintf("peer-%d", i))
		keys[peers[i].Name()] = peers[i].Public()
	}
	return peers, func(name string) (cryptoutil.PublicKey, bool) {
		pub, ok := keys[name]
		return pub, ok
	}
}

// TestVerifyEndorsementsBatchMatchesSerial plants structural failures and
// bad signatures across a block's worth of transactions and requires the
// batch path to reproduce the serial per-tx verdicts, with bisection
// isolating exactly the corrupted transactions.
func TestVerifyEndorsementsBatchMatchesSerial(t *testing.T) {
	client := cryptoutil.MustNewSigner("batch-client")
	peers, keys := peerSet(t, 3)
	const need = 3

	txs := make([]*Tx, 8)
	for i := range txs {
		txs[i] = endorsedTx(t, client, peers, i)
	}
	txs[2].Endorsements[1].Sig[9] ^= 0x01         // bad endorsement signature
	txs[4].Endorsements = txs[4].Endorsements[:1] // below threshold
	txs[5].Endorsements[0].Peer = "peer-stranger" // unknown endorser
	txs[6].Endorsements[0].Sig[0] ^= 0x80         // bad sig on the first endorsement
	txs[6].Endorsements[2].Sig[63] ^= 0x01        // and on the last
	// One peer's valid endorsement, copied to fill the policy: every
	// signature verifies, only one peer signed.
	txs[7].Endorsements = []Endorsement{txs[7].Endorsements[0], txs[7].Endorsements[0], txs[7].Endorsements[0]}

	cryptoutil.ResetSigCache()
	serial := make([]error, len(txs))
	for i, tx := range txs {
		serial[i] = tx.VerifyEndorsements(keys, need)
	}
	cryptoutil.ResetSigCache()
	batch := VerifyEndorsementsBatch(txs, keys, need)

	for i := range txs {
		if (serial[i] == nil) != (batch[i] == nil) {
			t.Errorf("tx %d: serial verdict %v, batch verdict %v", i, serial[i], batch[i])
			continue
		}
		if serial[i] != nil && serial[i].Error() != batch[i].Error() {
			t.Errorf("tx %d: serial error %q, batch error %q", i, serial[i], batch[i])
		}
	}
	for _, i := range []int{2, 4, 5, 6, 7} {
		if serial[i] == nil {
			t.Errorf("tx %d: planted failure accepted", i)
		}
	}
	if want := "txn: duplicate endorser peer-0"; serial[7] == nil || serial[7].Error() != want {
		t.Errorf("repeated endorser: got %v, want %q", serial[7], want)
	}
}

func TestVerifyClientBatchMatchesSerial(t *testing.T) {
	clients := make([]*cryptoutil.Signer, 3)
	keyMap := make(map[string]cryptoutil.PublicKey)
	for i := range clients {
		clients[i] = cryptoutil.MustNewSigner(fmt.Sprintf("client-%d", i))
		keyMap[clients[i].Name()] = clients[i].Public()
	}
	keys := func(name string) (cryptoutil.PublicKey, bool) {
		pub, ok := keyMap[name]
		return pub, ok
	}

	txs := make([]*Tx, 6)
	for i := range txs {
		tx, err := Sign(clients[i%len(clients)], Invocation{
			Contract: "kv", Method: "put",
			Args: [][]byte{[]byte(fmt.Sprintf("k%d", i)), []byte("v")},
		})
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	txs[1].Sig[10] ^= 0x01                // bad client signature
	txs[3].Client = "client-nobody"       // unknown client
	txs[4].Invocation.Method = "tampered" // id mismatch

	cryptoutil.ResetSigCache()
	serial := make([]error, len(txs))
	for i, tx := range txs {
		pub, ok := keys(tx.Client)
		if !ok {
			serial[i] = fmt.Errorf("txn: unknown client %s", tx.Client)
			continue
		}
		serial[i] = tx.VerifyClient(pub)
	}
	cryptoutil.ResetSigCache()
	batch := VerifyClientBatch(txs, keys)

	for i := range txs {
		if (serial[i] == nil) != (batch[i] == nil) {
			t.Errorf("tx %d: serial verdict %v, batch verdict %v", i, serial[i], batch[i])
		}
	}
	if !errors.Is(batch[1], cryptoutil.ErrBadSignature) {
		t.Errorf("tx 1: want ErrBadSignature, got %v", batch[1])
	}
}

// TestVerifyEndorsementsAggregateMatchesSerial covers the aggregate fast
// path and every fallback: no aggregate attached, endorsement corrupted
// after cosigning (the aggregate detects it, the serial fallback names
// it), and a corrupted aggregate over honest endorsements (the fallback
// still accepts the tx).
func TestVerifyEndorsementsAggregateMatchesSerial(t *testing.T) {
	client := cryptoutil.MustNewSigner("agg-client")
	peers, keys := peerSet(t, 3)
	leader := peers[0]
	const need = 3

	honest := endorsedTx(t, client, peers, 1)
	if err := honest.Cosign(leader); err != nil {
		t.Fatal(err)
	}
	v0 := cryptoutil.VerifyOps()
	a0 := cryptoutil.AggregateVerifyOps()
	if err := honest.VerifyEndorsementsAggregate(keys, need); err != nil {
		t.Fatalf("honest aggregate rejected: %v", err)
	}
	if got := cryptoutil.VerifyOps() - v0; got != 1 {
		t.Errorf("aggregate verify cost %d VerifyOps, want 1 (one threshold check for 3 endorsers)", got)
	}
	if got := cryptoutil.AggregateVerifyOps() - a0; got != 1 {
		t.Errorf("AggregateVerifyOps advanced by %d, want 1", got)
	}

	// No aggregate attached: behaves exactly like the serial path.
	plain := endorsedTx(t, client, peers, 2)
	if err := plain.VerifyEndorsementsAggregate(keys, need); err != nil {
		t.Fatalf("aggregate-less tx rejected: %v", err)
	}

	// An endorsement corrupted after cosigning breaks the commitment; the
	// fallback must produce the serial verdict naming the offender.
	tampered := endorsedTx(t, client, peers, 3)
	if err := tampered.Cosign(leader); err != nil {
		t.Fatal(err)
	}
	tampered.Endorsements[1].Sig[4] ^= 0x01
	serialErr := tampered.VerifyEndorsements(keys, need)
	aggErr := tampered.VerifyEndorsementsAggregate(keys, need)
	if serialErr == nil || aggErr == nil {
		t.Fatalf("tampered endorsement accepted: serial=%v aggregate=%v", serialErr, aggErr)
	}
	if serialErr.Error() != aggErr.Error() {
		t.Errorf("fallback verdict %q differs from serial %q", aggErr, serialErr)
	}

	// A corrupted aggregate over honest endorsements must not reject the
	// tx: the fallback re-verifies per signature and accepts.
	brokenAgg := endorsedTx(t, client, peers, 4)
	if err := brokenAgg.Cosign(leader); err != nil {
		t.Fatal(err)
	}
	brokenAgg.AggEndorsement.Agg.Sig[0] ^= 0x01
	if err := brokenAgg.VerifyEndorsementsAggregate(keys, need); err != nil {
		t.Errorf("honest tx rejected because its aggregate was corrupt: %v", err)
	}

	// Threshold and unknown-leader failures are structural.
	short := endorsedTx(t, client, peers, 5)
	if err := short.Cosign(leader); err != nil {
		t.Fatal(err)
	}
	short.Endorsements = short.Endorsements[:1]
	if err := short.VerifyEndorsementsAggregate(keys, need); err == nil {
		t.Error("below-threshold tx accepted in aggregate mode")
	}
	orphan := endorsedTx(t, client, peers, 6)
	if err := orphan.Cosign(leader); err != nil {
		t.Fatal(err)
	}
	orphan.AggEndorsement.Leader = "peer-stranger"
	if err := orphan.VerifyEndorsementsAggregate(keys, need); err == nil {
		t.Error("unknown aggregation leader accepted")
	}

	// So is a repeated endorser: the leader cosigned three copies of its
	// own endorsement, the aggregate itself is valid, and the verdict must
	// still be the serial path's rejection.
	dup := endorsedTx(t, client, peers[:1], 7)
	dup.Endorsements = []Endorsement{dup.Endorsements[0], dup.Endorsements[0], dup.Endorsements[0]}
	if err := dup.Cosign(leader); err != nil {
		t.Fatal(err)
	}
	serialErr, aggErr = dup.VerifyEndorsements(keys, need), dup.VerifyEndorsementsAggregate(keys, need)
	if serialErr == nil || aggErr == nil {
		t.Fatalf("repeated endorser accepted: serial=%v aggregate=%v", serialErr, aggErr)
	}
	if serialErr.Error() != aggErr.Error() {
		t.Errorf("aggregate verdict %q differs from serial %q", aggErr, serialErr)
	}
}

func TestCodecRoundTripWithAggregate(t *testing.T) {
	client := cryptoutil.MustNewSigner("codec-agg-client")
	peers, keys := peerSet(t, 2)
	tx := endorsedTx(t, client, peers, 7)
	if err := tx.Cosign(peers[0]); err != nil {
		t.Fatal(err)
	}

	enc := tx.Marshal()
	if len(enc) != tx.EncodedLen() {
		t.Fatalf("EncodedLen %d, Marshal produced %d bytes", tx.EncodedLen(), len(enc))
	}
	got, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := *tx
	want.Trace, got.Trace = nil, nil
	if !reflect.DeepEqual(&want, got) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, &want)
	}
	if !bytes.Equal(got.Marshal(), enc) {
		t.Fatal("re-marshal of decoded tx differs")
	}
	// The aggregate still verifies after the round trip — replay relies on
	// it.
	if err := got.VerifyEndorsementsAggregate(keys, 2); err != nil {
		t.Fatalf("aggregate broken by codec: %v", err)
	}
	// Truncation anywhere inside the aggregate section fails cleanly.
	for i := len(enc) - 100; i < len(enc); i++ {
		if _, err := Unmarshal(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", i)
		}
	}
	// A non-boolean aggregate flag is rejected: find the flag byte (right
	// before the aggregate section) and corrupt it.
	plain := endorsedTx(t, client, peers, 8)
	pe := plain.Marshal()
	pe[len(pe)-65] = 2 // flag sits just before the trailing 64-byte sig
	if _, err := Unmarshal(pe); err == nil {
		t.Fatal("bad aggregate flag accepted")
	}
}
