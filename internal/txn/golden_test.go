package txn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/israce"
)

// Golden vectors captured at the commit before the digest and codec paths
// were rewritten to build in pooled buffers (PR 14). Transaction IDs,
// endorsement digests and the wire encoding are persisted in ledgers and
// checkpoints and signed over, so an optimised path must reproduce them
// byte for byte.

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*7
	}
	return b
}

type goldenTx struct {
	name    string
	tx      *Tx
	id      string // hex of the ID Sign assigns
	digest  string // hex of EndorsementDigest
	wireLen int
	wireSum string // hex of SHA-256(Marshal)
	wire    string // full hex of Marshal, when short enough to read
}

func goldenTxs() []goldenTx {
	var sig, s1, s2, aggSig cryptoutil.Signature
	copy(sig[:], pattern(64, 1))
	copy(s1[:], pattern(64, 2))
	copy(s2[:], pattern(64, 3))
	copy(aggSig[:], pattern(64, 4))
	var commitment cryptoutil.Hash
	copy(commitment[:], pattern(32, 5))
	longKey := "user000000000000000000000000000000000001"

	return []goldenTx{
		{
			// Every section present: an empty argument, a read of the
			// empty key, a deletion (nil write) beside an empty write, and
			// the aggregate-endorsement section.
			name: "full",
			tx: &Tx{
				Client:     "client-7",
				Invocation: Invocation{Contract: "kv", Method: "put", Args: [][]byte{[]byte("user42"), []byte("value-bytes"), {}}},
				RWSet: RWSet{
					Reads:  []Read{{Key: "user42", Version: Version{BlockNum: 3, TxNum: 1}}, {Key: ""}},
					Writes: []Write{{Key: "user42", Value: []byte("v")}, {Key: "gone", Value: nil}, {Key: "empty", Value: []byte{}}},
				},
				Endorsements:   []Endorsement{{Peer: "peer0", Sig: s1}, {Peer: "peer1", Sig: s2}},
				AggEndorsement: &AggregateEndorsement{Leader: "peer0", Agg: cryptoutil.AggregateSig{Commitment: commitment, Sig: aggSig}},
				Sig:            sig,
			},
			id:      "3434095cafcc830c4e5a4a2db0ab442a956bc5162613d34e74699d2703075cc9",
			digest:  "0383faa379eaa231a6279092976d8a686a73d9360e96ac006f7aa9668164949a",
			wireLen: 497,
			wireSum: "9967c1b43d7ae188fe6951d8fd477d2543201ed55bb6bc8c4037e9f0fdfbf0f2",
		},
		{
			name:    "minimal",
			tx:      &Tx{Client: "c", Invocation: Invocation{Contract: "kv", Method: "get"}, Sig: sig},
			id:      "433a6c7430a99ff71102ef0e0011246613e12981d2ab75fca5a2ba527fde0397",
			digest:  "600f6f66a4fbbb0f544d8d81c3a75d056b6ac7848ca8ef0a16554121f10a3427",
			wireLen: 133,
			wireSum: "4f2eec00ca4337c3050ac97f09e33958d0f39565f1e76c535e51d46be92dcfa7",
			wire: "d702433a6c7430a99ff71102ef0e0011246613e12981d2ab75fca5a2ba527fde0397" +
				"0000000163000000026b76000000036765740000000000000000000000000000000000" +
				"01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6" +
				"fd040b121920272e353c434a51585f666d747b828990979ea5acb3ba",
		},
		{
			// The benchmark's shape: a 1 KB value, strings longer than any
			// small-string fast path, versions using every byte.
			name: "1KB-write",
			tx: &Tx{
				Client:     strings.Repeat("long-client-name/", 4),
				Invocation: Invocation{Contract: "kv", Method: "modify", Args: [][]byte{[]byte(longKey), pattern(1024, 9)}},
				RWSet: RWSet{
					Reads:  []Read{{Key: longKey, Version: Version{BlockNum: 1 << 40, TxNum: 1<<32 - 1}}},
					Writes: []Write{{Key: longKey, Value: pattern(1024, 10)}},
				},
				Endorsements: []Endorsement{{Peer: "peer0", Sig: s1}, {Peer: "peer1", Sig: s2}, {Peer: "peer2", Sig: s1}, {Peer: "peer3", Sig: s2}},
				Sig:          sig,
			},
			id:      "6fe8c44b0918d9b9f0be35707b552d5f398ee14d6ac99652c0114cee53dd2ba4",
			digest:  "3c67780283a843ff5f373d07b00c904fb0af9c655d500aa4e4e6959702166ee9",
			wireLen: 2696,
			wireSum: "ac3d64bcf9e65346ef9b0c0be20e896f24abb39a56cf7b2d03c0280942f13cdc",
		},
	}
}

func TestGoldenVectors(t *testing.T) {
	for _, g := range goldenTxs() {
		t.Run(g.name, func(t *testing.T) {
			signer := cryptoutil.MustNewSigner(g.tx.Client)
			signed, err := Sign(signer, g.tx.Invocation)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(signed.ID[:]); got != g.id {
				t.Errorf("tx ID %s, golden %s", got, g.id)
			}
			// Every verify entry point recomputes the same ID.
			if err := signed.VerifyClient(signer.Public()); err != nil {
				t.Errorf("VerifyClient: %v", err)
			}
			if err := signed.VerifyClientCached(signer.Public()); err != nil {
				t.Errorf("VerifyClientCached: %v", err)
			}
			keys := func(string) (cryptoutil.PublicKey, bool) { return signer.Public(), true }
			if errs := VerifyClientBatch([]*Tx{signed}, keys); errs[0] != nil {
				t.Errorf("VerifyClientBatch: %v", errs[0])
			}

			tx := g.tx
			tx.ID = signed.ID
			digest := tx.EndorsementDigest()
			if got := hex.EncodeToString(digest[:]); got != g.digest {
				t.Errorf("endorsement digest %s, golden %s", got, g.digest)
			}
			if EndorsementDigestOf(tx.ID, tx.RWSet) != digest {
				t.Error("EndorsementDigestOf(id, rw) differs from the method on the same tx")
			}

			wire := tx.Marshal()
			sum := sha256.Sum256(wire)
			if len(wire) != g.wireLen || hex.EncodeToString(sum[:]) != g.wireSum {
				t.Errorf("wire encoding: %d bytes, sha256 %x; golden %d bytes, %s", len(wire), sum, g.wireLen, g.wireSum)
			}
			if g.wire != "" && hex.EncodeToString(wire) != g.wire {
				t.Errorf("wire bytes\n got %x\nwant %s", wire, g.wire)
			}
			back, err := Unmarshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Marshal(), wire) {
				t.Error("re-marshal of the decoded golden tx differs")
			}
		})
	}
}

// The digest and codec allocation budget, steady state (pool warm), on the
// benchmark's 1 KB-write shape. A regression here names its layer before
// the end-to-end allocs_per_tx gate does.
func TestDigestAndCodecAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	g := goldenTxs()[2]
	signer := cryptoutil.MustNewSigner(g.tx.Client)
	signed, err := Sign(signer, g.tx.Invocation)
	if err != nil {
		t.Fatal(err)
	}
	tx := g.tx
	tx.ID = signed.ID

	pins := []struct {
		name string
		want float64
		fn   func()
	}{
		{"tx ID hash (checkID)", 0, func() {
			if err := tx.checkID(); err != nil {
				t.Fatal(err)
			}
		}},
		{"EndorsementDigest", 0, func() { _ = tx.EndorsementDigest() }},
		{"EndorsementDigestOf", 0, func() { _ = EndorsementDigestOf(tx.ID, tx.RWSet) }},
		{"Marshal", 1, func() { _ = tx.Marshal() }},
	}
	for _, p := range pins {
		p.fn() // warm the scratch pool
		if got := testing.AllocsPerRun(200, p.fn); got != p.want {
			t.Errorf("%s: %v allocs, want %v", p.name, got, p.want)
		}
	}

	// Unmarshal no longer allocates a Trace nobody reads: one allocation
	// fewer than the decoded fields alone account for would be impossible,
	// one more is the regression.
	wire := tx.Marshal()
	decodedFields := 1 + // the Tx
		3 + // client, contract, method
		1 + len(tx.Invocation.Args) + // args slice + each arg
		1 + len(tx.RWSet.Reads) + // reads slice + each key
		1 + 2*len(tx.RWSet.Writes) + // writes slice + each key and value
		1 + len(tx.Endorsements) // endorsements slice + each peer name
	got := testing.AllocsPerRun(200, func() {
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		if back.Trace != nil {
			t.Fatal("Unmarshal allocated a Trace")
		}
	})
	if got != float64(decodedFields) {
		t.Errorf("Unmarshal: %v allocs, want %d (one per decoded field, no Trace)", got, decodedFields)
	}
}

// BenchmarkEndorsementDigest tracks what every endorsing and committing
// peer pays per transaction to bind the ID to a 1 KB write; run with
// -benchmem, the pooled buffer keeps it at 0 allocs/op.
func BenchmarkEndorsementDigest(b *testing.B) {
	tx := goldenTxs()[2].tx
	b.ReportAllocs()
	b.SetBytes(int64(len(tx.RWSet.Writes[0].Value)))
	for i := 0; i < b.N; i++ {
		_ = tx.EndorsementDigest()
	}
}
