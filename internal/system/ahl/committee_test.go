package ahl

import (
	"fmt"
	"sync"
	"testing"
)

// TestCommitteeSequencesEveryDecision pushes more decisions through the
// 2PC committee than a PBFT member's commit buffer once held (4 096). A
// member whose commit stream nobody read blocked on its full buffer while
// holding its lock; with three of four so blocked the committee lost its
// quorum and every later decision waited out the deadline. Members now
// keep their log and every reader reads it by index, so none can block.
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
