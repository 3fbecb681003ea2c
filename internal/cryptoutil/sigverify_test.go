package cryptoutil

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// testChecks builds n valid checks from round-robin signers over distinct
// digests.
func testChecks(t testing.TB, n int) []Check {
	t.Helper()
	signers := []*Signer{
		MustNewSigner("batch-a"),
		MustNewSigner("batch-b"),
		MustNewSigner("batch-c"),
	}
	checks := make([]Check, n)
	for i := range checks {
		s := signers[i%len(signers)]
		digest := HashBytes([]byte(fmt.Sprintf("payload-%d", i)))
		sig, err := s.SignDigest(digest)
		if err != nil {
			t.Fatal(err)
		}
		checks[i] = Check{Pub: s.Public(), Digest: digest, Sig: sig}
	}
	return checks
}

func TestVerifyBatchAllValidCountsOneBatch(t *testing.T) {
	checks := testChecks(t, 8)
	ResetSigCache()
	b0, v0 := BatchVerifyOps(), VerifyOps()
	if err := VerifyBatch(checks); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if got := BatchVerifyOps() - b0; got != 1 {
		t.Errorf("BatchVerifyOps advanced by %d, want 1 (batches, not members)", got)
	}
	if got := VerifyOps() - v0; got != 0 {
		t.Errorf("VerifyOps advanced by %d inside batch mode, want 0", got)
	}
}

func TestVerifyBatchEmptyIsFree(t *testing.T) {
	b0 := BatchVerifyOps()
	if err := VerifyBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if BatchVerifyOps() != b0 {
		t.Error("empty batch consumed a batch op")
	}
}

func TestVerifyBatchBisectionIsolatesExactIndex(t *testing.T) {
	checks := testChecks(t, 8)
	checks[5].Sig[7] ^= 0x01
	ResetSigCache()
	b0 := BatchVerifyOps()
	err := VerifyBatch(checks)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	if len(be.Bad) != 1 || be.Bad[0] != 5 {
		t.Fatalf("bisection isolated %v, want [5]", be.Bad)
	}
	// The bisection tree for one bad member among 8 is deterministic:
	// [0..8) fails, [0..4) passes, [4..8) fails, [4..6) fails, [4) passes,
	// [5) fails, [6..8) passes — 7 batch passes total.
	if got := BatchVerifyOps() - b0; got != 7 {
		t.Errorf("bisection used %d batch ops, want 7", got)
	}
}

func TestVerifyBatchReportsEveryBadMemberInOrder(t *testing.T) {
	checks := testChecks(t, 9)
	checks[1].Sig[0] ^= 0x80
	checks[6].Digest[3] ^= 0x01
	checks[8].Sig[63] ^= 0x40
	ResetSigCache()
	err := VerifyBatch(checks)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("want *BatchError, got %v", err)
	}
	want := []int{1, 6, 8}
	if len(be.Bad) != len(want) {
		t.Fatalf("Bad = %v, want %v", be.Bad, want)
	}
	for i := range want {
		if be.Bad[i] != want[i] {
			t.Fatalf("Bad = %v, want %v", be.Bad, want)
		}
	}
}

func TestVerifyDigestCachedHitsAndMisses(t *testing.T) {
	s := MustNewSigner("cache")
	digest := HashBytes([]byte("cached-payload"))
	sig, err := s.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	ResetSigCache()
	h0, m0 := SigCacheStats()
	v0 := VerifyOps()
	if err := VerifyDigestCached(s.Public(), digest, sig); err != nil {
		t.Fatalf("first (miss) verify: %v", err)
	}
	if err := VerifyDigestCached(s.Public(), digest, sig); err != nil {
		t.Fatalf("second (hit) verify: %v", err)
	}
	h1, m1 := SigCacheStats()
	if m1-m0 != 1 || h1-h0 != 1 {
		t.Errorf("hits/misses advanced by %d/%d, want 1/1", h1-h0, m1-m0)
	}
	if got := VerifyOps() - v0; got != 1 {
		t.Errorf("VerifyOps advanced by %d, want 1 (hit must skip curve math)", got)
	}

	// Failures are never cached: the same bad triple misses every time.
	bad := sig
	bad[10] ^= 0x01
	mb0 := m1
	for i := 0; i < 2; i++ {
		if err := VerifyDigestCached(s.Public(), digest, bad); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("bad signature accepted on attempt %d: %v", i, err)
		}
	}
	_, mb1 := SigCacheStats()
	if mb1-mb0 != 2 {
		t.Errorf("bad triple missed %d times, want 2 (failures not cached)", mb1-mb0)
	}
}

func TestConcurrentCachedVerifyIsSingleFlight(t *testing.T) {
	s := MustNewSigner("flight")
	digest := HashBytes([]byte("single-flight"))
	sig, err := s.SignDigest(digest)
	if err != nil {
		t.Fatal(err)
	}
	const peers = 8
	ResetSigCache()
	h0, m0 := SigCacheStats()
	v0 := VerifyOps()
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := VerifyDigestCached(s.Public(), digest, sig); err != nil {
				t.Errorf("concurrent cached verify: %v", err)
			}
		}()
	}
	wg.Wait()
	h1, m1 := SigCacheStats()
	if m1-m0 != 1 || h1-h0 != peers-1 {
		t.Errorf("hits/misses advanced by %d/%d, want %d/1", h1-h0, m1-m0, peers-1)
	}
	if got := VerifyOps() - v0; got != 1 {
		t.Errorf("VerifyOps advanced by %d, want 1 (one curve check for %d peers)", got, peers)
	}
}

func TestResetSigCacheKeepsCountersMonotone(t *testing.T) {
	checks := testChecks(t, 2)
	if err := VerifyBatch(checks); err != nil {
		t.Fatal(err)
	}
	h0, m0 := SigCacheStats()
	b0 := BatchVerifyOps()
	ResetSigCache()
	h1, m1 := SigCacheStats()
	if h1 < h0 || m1 < m0 || BatchVerifyOps() < b0 {
		t.Error("ResetSigCache moved a counter backwards")
	}
	// The entries really are gone: re-verifying is a miss again.
	if err := VerifyBatch(checks); err != nil {
		t.Fatal(err)
	}
	_, m2 := SigCacheStats()
	if m2 == m1 {
		t.Error("cache still warm after ResetSigCache")
	}
}

func TestCosignVerifyAggregateRoundTrip(t *testing.T) {
	leader := MustNewSigner("agg-leader")
	digest := HashBytes([]byte("endorsement-digest"))
	cosigs := make([]Signature, 4)
	for i := range cosigs {
		peer := MustNewSigner(fmt.Sprintf("agg-peer-%d", i))
		sig, err := peer.SignDigest(digest)
		if err != nil {
			t.Fatal(err)
		}
		cosigs[i] = sig
	}
	agg, err := Cosign(leader, digest, cosigs)
	if err != nil {
		t.Fatal(err)
	}

	a0, v0 := AggregateVerifyOps(), VerifyOps()
	if err := VerifyAggregate(leader.Public(), digest, cosigs, agg); err != nil {
		t.Fatalf("valid aggregate rejected: %v", err)
	}
	if got := AggregateVerifyOps() - a0; got != 1 {
		t.Errorf("AggregateVerifyOps advanced by %d, want 1", got)
	}
	if got := VerifyOps() - v0; got != 1 {
		t.Errorf("VerifyOps advanced by %d, want 1 (one threshold check for 4 co-signers)", got)
	}

	// Tampering with any co-signature breaks the commitment binding.
	tampered := append([]Signature(nil), cosigs...)
	tampered[2][5] ^= 0x01
	if err := VerifyAggregate(leader.Public(), digest, tampered, agg); !errors.Is(err, ErrBadAggregate) {
		t.Errorf("tampered co-signature accepted: %v", err)
	}
	// A different digest breaks the leader signature.
	other := HashBytes([]byte("different-digest"))
	if err := VerifyAggregate(leader.Public(), other, cosigs, agg); !errors.Is(err, ErrBadAggregate) {
		t.Errorf("wrong digest accepted: %v", err)
	}
	// The wrong leader key fails the threshold check.
	imposter := MustNewSigner("agg-imposter")
	if err := VerifyAggregate(imposter.Public(), digest, cosigs, agg); !errors.Is(err, ErrBadAggregate) {
		t.Errorf("imposter leader accepted: %v", err)
	}
	// No co-signatures is a refusal on both ends.
	if _, err := Cosign(leader, digest, nil); err == nil {
		t.Error("Cosign accepted an empty co-signature set")
	}
	if err := VerifyAggregate(leader.Public(), digest, nil, agg); !errors.Is(err, ErrBadAggregate) {
		t.Errorf("empty co-signature set accepted: %v", err)
	}
}

// ── Benchmarks ──────────────────────────────────────────────────────────

// BenchmarkVerifyDigest pins the key-cache satellite: "cachedkey" is the
// NewSigner/NewPublicKey path that parses the curve point once, "rebuild"
// is the old per-call reconstruction (still reachable through a literal
// PublicKey). Run with -benchmem; the rebuild pays one allocation per
// verify on top of what crypto/ecdsa allocates itself (see VerifyDigest).
func BenchmarkVerifyDigest(b *testing.B) {
	s := MustNewSigner("bench-verify")
	digest := HashBytes([]byte("bench-payload"))
	sig, err := s.SignDigest(digest)
	if err != nil {
		b.Fatal(err)
	}
	cached := s.Public()
	rebuild := PublicKey{X: cached.X, Y: cached.Y}

	b.Run("key=cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := VerifyDigest(cached, digest, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("key=rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := VerifyDigest(rebuild, digest, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSignDigest tracks what an endorsing peer pays per transaction;
// run with -benchmem, every allocation is inside crypto/ecdsa.
func BenchmarkSignDigest(b *testing.B) {
	s := MustNewSigner("bench-sign")
	digest := HashBytes([]byte("bench-payload"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.SignDigest(digest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigVerify compares the four ways a committer can check a
// block's worth of endorsements: 16 txs × 4 endorsers = 64 signatures.
// serial is one VerifyDigest per signature; batch is one cold VerifyBatch
// pass (cache reset each iteration); cached is the same batch with a warm
// verified-signature cache; aggregate is one threshold check per tx.
func BenchmarkSigVerify(b *testing.B) {
	const txs, endorsers = 16, 4
	peers := make([]*Signer, endorsers)
	for i := range peers {
		peers[i] = MustNewSigner(fmt.Sprintf("bench-peer-%d", i))
	}
	leader := peers[0]
	digests := make([]Hash, txs)
	checks := make([]Check, 0, txs*endorsers)
	aggs := make([]AggregateSig, txs)
	cosigSets := make([][]Signature, txs)
	for t := range digests {
		digests[t] = HashBytes([]byte(fmt.Sprintf("bench-tx-%d", t)))
		cosigs := make([]Signature, endorsers)
		for p, peer := range peers {
			sig, err := peer.SignDigest(digests[t])
			if err != nil {
				b.Fatal(err)
			}
			cosigs[p] = sig
			checks = append(checks, Check{Pub: peer.Public(), Digest: digests[t], Sig: sig})
		}
		cosigSets[t] = cosigs
		agg, err := Cosign(leader, digests[t], cosigs)
		if err != nil {
			b.Fatal(err)
		}
		aggs[t] = agg
	}
	sigsPerOp := float64(len(checks))

	b.Run("mode=serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range checks {
				if err := VerifyDigest(c.Pub, c.Digest, c.Sig); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(sigsPerOp, "sigs/op")
	})
	b.Run("mode=batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ResetSigCache()
			b.StartTimer()
			if err := VerifyBatch(checks); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sigsPerOp, "sigs/op")
	})
	b.Run("mode=cached", func(b *testing.B) {
		b.ReportAllocs()
		ResetSigCache()
		if err := VerifyBatch(checks); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := VerifyBatch(checks); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sigsPerOp, "sigs/op")
	})
	b.Run("mode=aggregate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for t := range aggs {
				if err := VerifyAggregate(leader.Public(), digests[t], cosigSets[t], aggs[t]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(sigsPerOp, "sigs/op")
	})
}
