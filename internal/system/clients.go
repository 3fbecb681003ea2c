package system

import (
	"fmt"
	"sync"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/pipeline"
	"dichotomy/internal/txn"
)

// Clients is a ledger system's client registry: each client's name and
// the key its transactions are signed under, registered before traffic and
// read by every replica's authentication check. The zero value is empty
// and ready to use.
type Clients struct {
	keys sync.Map // name → cryptoutil.PublicKey
}

// Register records client name's verification key.
func (c *Clients) Register(name string, pub cryptoutil.PublicKey) { c.keys.Store(name, pub) }

// Key returns client name's verification key.
func (c *Clients) Key(name string) (cryptoutil.PublicKey, bool) {
	pub, ok := c.keys.Load(name)
	if !ok {
		return cryptoutil.PublicKey{}, false
	}
	return pub.(cryptoutil.PublicKey), true
}

// Verify checks t's client signature against its client's key; an
// unregistered client fails.
func (c *Clients) Verify(t *txn.Tx) error {
	pub, ok := c.Key(t.Client)
	if !ok {
		return fmt.Errorf("system: unknown client %s", t.Client)
	}
	return t.VerifyClient(pub)
}

// VerifyAll checks the client signatures of txs across workers into errs,
// one slot per transaction (nil = valid): one Verify per transaction, or,
// with batch, one txn.VerifyClientBatch pass per worker chunk. The
// verdicts are the same either way.
func (c *Clients) VerifyAll(txs []*txn.Tx, errs []error, workers int, batch bool) {
	if batch {
		pipeline.ParallelChunks(workers, len(txs), func(lo, hi int) {
			copy(errs[lo:hi], txn.VerifyClientBatch(txs[lo:hi], c.Key))
		})
		return
	}
	pipeline.Parallel(workers, len(txs), func(i int) { errs[i] = c.Verify(txs[i]) })
}
