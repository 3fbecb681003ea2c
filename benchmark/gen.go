package main

import (
	"fmt"
	"runtime"
	"sync"

	"dichotomy/internal/cryptoutil"
	"dichotomy/internal/txn"
)

// pool is the deterministic transaction stream of one run. Transaction i
// is the (i / K)-th output of generator i mod K, where generator k signs
// as client k and is seeded from (seed, k): the same seed yields the same
// ID sequence, and K consecutive transactions never share an ID because
// each has a different signer. The first len(txs) are generated and
// signed during set-up; a system that outruns the pre-signed pool is
// served by the same generators inline (counted in spill), so the stream
// a faster system sees is the one a slower system would have seen.
type pool struct {
	mu    sync.Mutex
	gens  []txSource
	txs   []*txn.Tx
	next  int
	spill int
}

// poolSeed derives generator k's seed. The constant is an odd 64-bit mix
// so neighbouring (seed, k) pairs land far apart.
func poolSeed(seed int64, k int) int64 {
	return seed*0x5851F42D4C957F2D + int64(k)*0x14057B7EF767814F + 1
}

// newPool builds the generators and pre-signs n transactions, spreading
// the generators (not the transactions) over the CPUs so the result does
// not depend on scheduling.
func newPool(w workload, seed int64, clients []*cryptoutil.Signer, n int) (*pool, error) {
	k := len(clients)
	p := &pool{gens: make([]txSource, k), txs: make([]*txn.Tx, n)}
	for i, c := range clients {
		p.gens[i] = w.source(poolSeed(seed, i), c)
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for g := wk; g < k; g += workers {
				for i := g; i < n; i += k {
					t, err := p.gens[g].Next()
					if err != nil {
						errs[wk] = fmt.Errorf("generate tx %d: %w", i, err)
						return
					}
					p.txs[i] = t
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// take returns the next transaction of the stream.
func (p *pool) take() (*txn.Tx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i := p.next
	p.next++
	if i < len(p.txs) {
		return p.txs[i], nil
	}
	p.spill++
	return p.gens[i%len(p.gens)].Next()
}

func isRead(t *txn.Tx) bool {
	return t.Invocation.Method == "get" || t.Invocation.Method == "query"
}
