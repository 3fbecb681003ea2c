package ahl

import (
	"fmt"
	"sync"
	"testing"
)

// TestCommitteeSequencesEveryDecision pushes more decisions through the
// 2PC committee than a PBFT member's commit buffer holds (4 096). A
// member whose commit stream nobody reads blocks on its full buffer while
// holding its lock; with three of four so blocked the committee loses its
// quorum and every later decision waits out the deadline.
func TestCommitteeSequencesEveryDecision(t *testing.T) {
	c := clusterUp(t, Config{Shards: 1, NodesPerShard: 4})
	const workers, each = 16, 320
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := c.coord.Run(fmt.Sprintf("w%d-%d", w, i), nil); err != nil {
					errs <- fmt.Errorf("decision %d of worker %d: %w", i, w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
