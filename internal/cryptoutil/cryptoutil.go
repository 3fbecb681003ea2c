// Package cryptoutil provides the cryptographic primitives shared by the
// blockchain and database models: SHA-256 hashing helpers, ECDSA P-256
// signing identities, and signature verification with an optional
// process-wide cost accounting hook used by the benchmark harness.
//
// All hash and signature arithmetic is real (crypto/sha256, crypto/ecdsa);
// nothing is stubbed. The paper attributes a large share of blockchain
// latency to exactly these operations (42% of Fabric block validation is
// signature verification), so they must consume genuine CPU time here.
package cryptoutil

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
)

// Hash is a 32-byte SHA-256 digest.
type Hash [32]byte

// ZeroHash is the all-zero digest, used as the parent of genesis blocks and
// the root of empty tries.
var ZeroHash Hash

// String returns the first 8 bytes of the digest in hex, enough to identify
// a hash in logs without overwhelming them.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }

// IsZero reports whether h is the zero digest.
func (h Hash) IsZero() bool { return h == ZeroHash }

// Bytes returns the digest as a fresh 32-byte slice.
func (h Hash) Bytes() []byte { return append([]byte(nil), h[:]...) }

// HashBytes returns the SHA-256 digest of data.
func HashBytes(data []byte) Hash {
	hashCount.Add(1)
	return sha256.Sum256(data)
}

// HashConcat returns the SHA-256 digest of the concatenation of the given
// byte slices, without building the intermediate buffer.
func HashConcat(parts ...[]byte) Hash {
	hashCount.Add(1)
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// HashPair hashes two child digests into a parent digest. It is the interior
// node combiner for all Merkle structures in this repository.
func HashPair(a, b Hash) Hash {
	return HashConcat(a[:], b[:])
}

// HashUint64 hashes an unsigned integer; used by proof-of-work puzzles and
// deterministic shard assignment.
func HashUint64(v uint64) Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return HashBytes(buf[:])
}

var hashCount atomic.Uint64

// HashOps returns the process-wide number of SHA-256 invocations performed
// through this package. The storage experiments use it to attribute
// tamper-evidence overhead.
func HashOps() uint64 { return hashCount.Load() }

// Signature is an ECDSA P-256 signature in raw r||s form (64 bytes).
type Signature [64]byte

// Signer is a signing identity: an ECDSA P-256 key pair plus a short name.
// Nodes and clients each hold one.
type Signer struct {
	name string
	key  *ecdsa.PrivateKey
	pub  PublicKey
}

// PublicKey is a verification-only identity. Keys built through NewSigner
// or NewPublicKey carry a shared parse cache: the crypto/ecdsa form of the
// curve point and its fixed-width encoding are computed once and reused by
// every verification against the key, instead of being rebuilt per call.
// The cache is a pointer so PublicKey stays freely copyable by value;
// zero-constructed literals (no cache) still verify, just without reuse.
type PublicKey struct {
	X, Y *big.Int

	cache *keyCache
}

// keyCache holds the lazily parsed runtime form of a public key. It is
// shared (by pointer) between all copies of one PublicKey, so the parse
// happens once per identity, race-safely, no matter how many goroutines
// verify under it concurrently.
type keyCache struct {
	once sync.Once
	key  *ecdsa.PublicKey
	enc  [64]byte // X‖Y, fixed-width; fingerprint input for the sig cache
}

// NewPublicKey builds a cache-backed verification key from curve
// coordinates.
func NewPublicKey(x, y *big.Int) PublicKey {
	return PublicKey{X: x, Y: y, cache: new(keyCache)}
}

// runtimeKey returns the crypto/ecdsa form of the key, parsing it at most
// once per identity. Literal-constructed keys without a cache fall back to
// a per-call rebuild so they keep working.
func (p PublicKey) runtimeKey() *ecdsa.PublicKey {
	if p.cache == nil {
		return &ecdsa.PublicKey{Curve: elliptic.P256(), X: p.X, Y: p.Y}
	}
	p.cache.once.Do(func() {
		p.cache.key = &ecdsa.PublicKey{Curve: elliptic.P256(), X: p.X, Y: p.Y}
		p.X.FillBytes(p.cache.enc[:32])
		p.Y.FillBytes(p.cache.enc[32:])
	})
	return p.cache.key
}

// encode returns the key as fixed-width X‖Y bytes, reusing the cached
// encoding when one exists.
func (p PublicKey) encode() [64]byte {
	if p.cache != nil {
		p.runtimeKey()
		return p.cache.enc
	}
	var out [64]byte
	p.X.FillBytes(out[:32])
	p.Y.FillBytes(out[32:])
	return out
}

// NewSigner generates a fresh P-256 signing identity.
func NewSigner(name string) (*Signer, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generate key for %s: %w", name, err)
	}
	return &Signer{
		name: name,
		key:  key,
		pub:  NewPublicKey(key.PublicKey.X, key.PublicKey.Y),
	}, nil
}

// MustNewSigner is NewSigner for tests and examples; it panics on failure,
// which only happens when the platform randomness source is broken.
func MustNewSigner(name string) *Signer {
	s, err := NewSigner(name)
	if err != nil {
		//lint:allow nopanic platform randomness is broken, nothing to salvage for tests
		panic(err)
	}
	return s
}

// Name returns the identity's short name.
func (s *Signer) Name() string { return s.name }

// Public returns the verification key.
func (s *Signer) Public() PublicKey { return s.pub }

// Sign signs the SHA-256 digest of msg.
func (s *Signer) Sign(msg []byte) (Signature, error) {
	digest := HashBytes(msg)
	return s.SignDigest(digest)
}

// SignDigest signs a precomputed digest. The signature leaves crypto/ecdsa
// as DER and is unpacked straight into the fixed-width raw form; no
// math/big value is created on the way.
func (s *Signer) SignDigest(digest Hash) (Signature, error) {
	signCount.Add(1)
	der, err := ecdsa.SignASN1(rand.Reader, s.key, digest[:])
	if err != nil {
		return Signature{}, fmt.Errorf("cryptoutil: sign: %w", err)
	}
	sig, ok := rawFromDER(der)
	if !ok {
		return Signature{}, errors.New("cryptoutil: sign: malformed signature from crypto/ecdsa")
	}
	return sig, nil
}

// ErrBadSignature is returned by Verify when the signature does not match.
var ErrBadSignature = errors.New("cryptoutil: signature verification failed")

// Verify checks sig over the SHA-256 digest of msg under pub.
func Verify(pub PublicKey, msg []byte, sig Signature) error {
	return VerifyDigest(pub, HashBytes(msg), sig)
}

// VerifyDigest checks sig over a precomputed digest under pub.
//
// BenchmarkVerifyDigest -benchmem pins the cost: 10 allocs/op, 576 B/op
// with a cached key, 11 allocs/op, 608 B/op when a literal PublicKey
// rebuilds the ecdsa.PublicKey per call (linux/amd64, go1.24). All ten are
// inside crypto/ecdsa, which re-parses the curve point per verify;
// ecdsaValid's DER buffer comes from a pool. ns/op is P-256 scalar math,
// which is exactly why the batch, cache, and aggregate layers in
// sigverify.go exist.
func VerifyDigest(pub PublicKey, digest Hash, sig Signature) error {
	verifyCount.Add(1)
	if !ecdsaValid(pub, digest, sig) {
		return ErrBadSignature
	}
	return nil
}

// ecdsaValid runs the raw curve check without touching any cost counter;
// callers decide whether the work is accounted per-signature (VerifyDigest)
// or per-batch (VerifyBatch).
func ecdsaValid(pub PublicKey, digest Hash, sig Signature) bool {
	buf := derBufs.Get().(*[maxDERLen]byte)
	der, ok := derFromRaw(buf[:0], sig)
	if ok {
		ok = ecdsa.VerifyASN1(pub.runtimeKey(), digest[:], der)
	}
	derBufs.Put(buf)
	return ok
}

// derBufs holds ecdsaValid's DER buffers. A buffer on ecdsaValid's stack
// would move to the heap on every call, because VerifyASN1's sig parameter
// escapes; VerifyASN1 keeps nothing of it past its return, so the buffer
// goes back to the pool as soon as it has.
var derBufs = sync.Pool{New: func() any { return new([maxDERLen]byte) }}

// ── Raw r‖s ⇄ DER ───────────────────────────────────────────────────────
//
// crypto/ecdsa speaks ASN.1 DER (SEQUENCE { INTEGER r, INTEGER s }); this
// repository stores signatures as fixed-width r‖s. The two functions below
// convert between them over caller-provided bytes, so a signature crosses
// the boundary without a math/big value or a buffer of the converter's own.

// maxDERLen bounds a P-256 signature's DER form: a two-byte SEQUENCE header
// plus two INTEGERs of at most 33 content bytes (32 plus a sign pad) under
// two-byte headers.
const maxDERLen = 2 + 2*(2+33)

// derFromRaw appends the DER encoding of sig to dst, which must be empty;
// with capacity maxDERLen it never grows. ok is false when r or s is zero:
// crypto/ecdsa's own encoder refuses a zero integer, and no valid signature
// has one.
func derFromRaw(dst []byte, sig Signature) (der []byte, ok bool) {
	dst = append(dst, 0x30, 0) // SEQUENCE, length patched below
	if dst, ok = appendDERInt(dst, sig[:32]); !ok {
		return nil, false
	}
	if dst, ok = appendDERInt(dst, sig[32:]); !ok {
		return nil, false
	}
	dst[1] = byte(len(dst) - 2)
	return dst, true
}

// appendDERInt appends a positive big-endian integer as a minimal DER
// INTEGER: leading zeros stripped, one zero byte restored when the top bit
// would otherwise read as a sign.
func appendDERInt(dst, v []byte) ([]byte, bool) {
	for len(v) > 0 && v[0] == 0 {
		v = v[1:]
	}
	if len(v) == 0 {
		return dst, false
	}
	pad := v[0] >> 7
	dst = append(dst, 0x02, byte(len(v))+pad)
	if pad == 1 {
		dst = append(dst, 0)
	}
	return append(dst, v...), true
}

// rawFromDER unpacks a DER signature into fixed-width r‖s. It accepts
// exactly what crypto/ecdsa emits for P-256 — short-form lengths, two
// positive INTEGERs of at most 32 significant bytes — and nothing after it.
func rawFromDER(der []byte) (sig Signature, ok bool) {
	if len(der) < 2 || der[0] != 0x30 || int(der[1]) != len(der)-2 {
		return sig, false
	}
	rest := der[2:]
	if rest, ok = readDERInt(sig[:32], rest); !ok {
		return sig, false
	}
	if rest, ok = readDERInt(sig[32:], rest); !ok || len(rest) != 0 {
		return sig, false
	}
	return sig, true
}

// readDERInt reads one positive DER INTEGER from src, right-aligned into
// dst, and returns what follows it.
func readDERInt(dst, src []byte) (rest []byte, ok bool) {
	if len(src) < 2 || src[0] != 0x02 {
		return nil, false
	}
	n := int(src[1])
	if n == 0 || n >= 0x80 || len(src) < 2+n {
		return nil, false
	}
	v, rest := src[2:2+n], src[2+n:]
	if v[0]&0x80 != 0 {
		return nil, false // negative
	}
	if v[0] == 0 {
		v = v[1:]
	}
	if len(v) > len(dst) {
		return nil, false
	}
	copy(dst[len(dst)-len(v):], v)
	return rest, true
}

var (
	signCount   atomic.Uint64
	verifyCount atomic.Uint64
)

// SignOps returns the process-wide count of signing operations.
func SignOps() uint64 { return signCount.Load() }

// VerifyOps returns the process-wide count of verification operations.
func VerifyOps() uint64 { return verifyCount.Load() }
