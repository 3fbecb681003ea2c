package cryptoutil

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"math/big"
	"testing"

	"dichotomy/internal/israce"
)

// The reference crypto boundary: raw r‖s ⇄ math/big ⇄ crypto/ecdsa's
// big.Int entry points, exactly as SignDigest and ecdsaValid were written
// before they moved to SignASN1/VerifyASN1. It lives only here, as what the
// one-pass path must equal — same 64-byte signatures accepted, same ones
// rejected.

func referenceSign(s *Signer, digest Hash) (Signature, error) {
	r, ss, err := ecdsa.Sign(rand.Reader, s.key, digest[:])
	if err != nil {
		return Signature{}, err
	}
	var sig Signature
	r.FillBytes(sig[:32])
	ss.FillBytes(sig[32:])
	return sig, nil
}

func referenceValid(pub PublicKey, digest Hash, sig Signature) bool {
	r := new(big.Int).SetBytes(sig[:32])
	s := new(big.Int).SetBytes(sig[32:])
	return ecdsa.Verify(pub.runtimeKey(), digest[:], r, s)
}

// scalar returns v as a fixed-width 32-byte big-endian value.
func scalar(v *big.Int) (out [32]byte) {
	v.FillBytes(out[:])
	return out
}

// edgeScalars are the r/s values a verifier must reject without panicking
// (0, N, N+1, 2²⁵⁶−1) or encode carefully (1: 31 leading zero bytes; N−1
// and 2²⁵⁵: top bit set, so DER needs a sign pad).
func edgeScalars() [][32]byte {
	n := elliptic.P256().Params().N
	one := big.NewInt(1)
	return [][32]byte{
		{}, // 0
		scalar(one),
		scalar(new(big.Int).Sub(n, one)),
		scalar(n),
		scalar(new(big.Int).Add(n, one)),
		scalar(new(big.Int).Lsh(one, 255)),
		scalar(new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)),
	}
}

func TestDERConversionRoundTrips(t *testing.T) {
	for _, r := range edgeScalars() {
		for _, s := range edgeScalars() {
			var sig Signature
			copy(sig[:32], r[:])
			copy(sig[32:], s[:])
			var buf [maxDERLen]byte
			der, ok := derFromRaw(buf[:0], sig)
			zero := r == [32]byte{} || s == [32]byte{}
			if ok == zero {
				t.Fatalf("derFromRaw(%x) ok=%v, want %v", sig, ok, !zero)
			}
			if !ok {
				continue
			}
			// The encoding is what crypto/ecdsa's own parser reads back.
			rr, ss := new(big.Int).SetBytes(r[:]), new(big.Int).SetBytes(s[:])
			if want := referenceDER(rr, ss); !bytes.Equal(der, want) {
				t.Fatalf("derFromRaw(%x) = %x, want %x", sig, der, want)
			}
			back, ok := rawFromDER(der)
			if !ok || back != sig {
				t.Fatalf("rawFromDER(derFromRaw(%x)) = %x, ok=%v", sig, back, ok)
			}
		}
	}
}

// referenceDER encodes (r, s) from big.Int's minimal big-endian form, the
// way crypto/ecdsa's big.Int entry points do.
func referenceDER(r, s *big.Int) []byte {
	enc := func(v *big.Int) []byte {
		b := v.Bytes()
		if b[0]&0x80 != 0 {
			b = append([]byte{0}, b...)
		}
		return append([]byte{0x02, byte(len(b))}, b...)
	}
	body := append(enc(r), enc(s)...)
	return append([]byte{0x30, byte(len(body))}, body...)
}

func TestRawFromDERRejectsMalformed(t *testing.T) {
	s := MustNewSigner("der")
	good, err := ecdsa.SignASN1(rand.Reader, s.key, ZeroHash[:])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rawFromDER(good); !ok {
		t.Fatal("rawFromDER rejected crypto/ecdsa's own output")
	}
	for n := 0; n < len(good); n++ {
		if _, ok := rawFromDER(good[:n]); ok {
			t.Errorf("accepted a signature truncated to %d of %d bytes", n, len(good))
		}
	}
	if _, ok := rawFromDER(append(bytes.Clone(good), 0)); ok {
		t.Error("accepted trailing bytes")
	}
	for _, bad := range [][]byte{
		nil,
		{0x30, 0x00},
		{0x31, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01},                  // not a SEQUENCE
		{0x30, 0x06, 0x03, 0x01, 0x01, 0x02, 0x01, 0x01},                  // not an INTEGER
		{0x30, 0x06, 0x02, 0x01, 0x81, 0x02, 0x01, 0x01},                  // negative r
		{0x30, 0x05, 0x02, 0x00, 0x02, 0x01, 0x01},                        // empty r
		append([]byte{0x30, 0x26, 0x02, 0x21, 0x01}, make([]byte, 37)...), // 33 significant bytes
	} {
		if _, ok := rawFromDER(bad); ok {
			t.Errorf("accepted malformed DER %x", bad)
		}
	}
}

// TestVerifyAgreesOnLeadingZeroSignatures signs until r and then s start
// with a zero byte — the fixed-width form's one encoding subtlety for a
// valid signature — and requires both paths to accept them.
func TestVerifyAgreesOnLeadingZeroSignatures(t *testing.T) {
	s := MustNewSigner("lz")
	for half, name := range []string{"r", "s"} {
		found := false
		for i := uint64(0); i < 20000 && !found; i++ {
			d := HashUint64(i)
			sig, err := s.SignDigest(d)
			if err != nil {
				t.Fatal(err)
			}
			if sig[half*32] != 0 {
				continue
			}
			found = true
			if !ecdsaValid(s.Public(), d, sig) || !referenceValid(s.Public(), d, sig) {
				t.Fatalf("valid signature with leading-zero %s rejected: %x", name, sig)
			}
		}
		if !found {
			t.Fatalf("no signature with a leading-zero %s in 20000 tries", name)
		}
	}
}

// TestSignPathsInterchangeable: either sign path's output verifies under
// either verify path, so signatures stored by one build verify under the
// other byte for byte.
func TestSignPathsInterchangeable(t *testing.T) {
	s := MustNewSigner("x")
	for i := uint64(0); i < 32; i++ {
		d := HashUint64(i)
		a, err := s.SignDigest(d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := referenceSign(s, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, sig := range []Signature{a, b} {
			if !ecdsaValid(s.Public(), d, sig) || !referenceValid(s.Public(), d, sig) {
				t.Fatalf("signature %x over %s does not verify under both paths", sig, d)
			}
		}
	}
}

// FuzzVerifyMatchesReference requires the one-pass verify to return the
// reference verdict — and never panic — over honest signatures, bit-flipped
// ones, arbitrary 64-byte strings, and the edge scalars spliced into r or
// s. mode picks the mutation, sel the signer/digest pair, pos the bit or
// edge, raw the replacement bytes.
func FuzzVerifyMatchesReference(f *testing.F) {
	fuzzInit(f)
	edges := edgeScalars()
	f.Add(uint8(0), uint8(0), uint16(0), []byte(nil))
	f.Add(uint8(1), uint8(5), uint16(7), []byte(nil))
	f.Add(uint8(1), uint8(2), uint16(256), []byte(nil))
	f.Add(uint8(2), uint8(1), uint16(0), bytes.Repeat([]byte{0xff}, 64))
	f.Add(uint8(2), uint8(1), uint16(0), make([]byte, 64))
	f.Add(uint8(2), uint8(3), uint16(0), []byte{0x30, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x01})
	for e := range edges {
		f.Add(uint8(3), uint8(e), uint16(e), []byte(nil))    // edge in r
		f.Add(uint8(3), uint8(e), uint16(e+64), []byte(nil)) // edge in s
	}
	f.Fuzz(func(t *testing.T, mode, sel uint8, pos uint16, raw []byte) {
		si := int(sel) % len(fuzzSigners)
		di := int(sel>>2) % len(fuzzDigests)
		pub, digest, sig := fuzzSigners[si].Public(), fuzzDigests[di], fuzzSigs[si][di]
		switch mode % 4 {
		case 0: // honest
		case 1:
			sig[int(pos/8)%len(sig)] ^= 1 << (pos % 8)
		case 2:
			sig = Signature{}
			copy(sig[:], raw)
		case 3:
			e := edges[int(pos)%len(edges)]
			copy(sig[int(pos/64)%2*32:], e[:])
		}
		got, want := ecdsaValid(pub, digest, sig), referenceValid(pub, digest, sig)
		if got != want {
			t.Fatalf("verdict %v, reference %v, for sig %x over %s", got, want, sig, digest)
		}
		if mode%4 == 0 && !got {
			t.Fatalf("honest signature %x rejected", sig)
		}
		var buf [maxDERLen]byte
		if der, ok := derFromRaw(buf[:0], sig); ok {
			if back, ok := rawFromDER(der); !ok || back != sig {
				t.Fatalf("DER round trip of %x gave %x, ok=%v", sig, back, ok)
			}
		}
	})
}

// The crypto boundary's allocation budget. What is left is crypto/ecdsa's
// own (it rebuilds its internal key form per call); the DER buffer
// VerifyASN1 lets escape comes from a pool, and the big.Int round trip cost
// 24 per verify and 71 per sign.
func TestCryptoBoundaryAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	s := MustNewSigner("allocs")
	d := HashBytes([]byte("payload"))
	sig, err := s.SignDigest(d)
	if err != nil {
		t.Fatal(err)
	}
	pub := s.Public()
	if got := testing.AllocsPerRun(200, func() {
		if err := VerifyDigest(pub, d, sig); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Errorf("VerifyDigest: %v allocs, want ≤ 10", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := s.SignDigest(d); err != nil {
			t.Fatal(err)
		}
	}); got > 67 {
		t.Errorf("SignDigest: %v allocs, want ≤ 67", got)
	}
	var buf [maxDERLen]byte
	if got := testing.AllocsPerRun(200, func() {
		der, _ := derFromRaw(buf[:0], sig)
		if _, ok := rawFromDER(der); !ok {
			t.Fatal("round trip failed")
		}
	}); got != 0 {
		t.Errorf("raw ⇄ DER conversion: %v allocs, want 0", got)
	}
}
