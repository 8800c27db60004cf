// Batch search: Phase-2 reduction for every query of a burst in parallel on
// the shared core, then one cross-query coalesced refinement through
// multistep.SearchBatchSq. Correlated queries' surviving candidates land on
// overlapping data-file pages; refining them together reads each page once
// for the whole batch instead of once per query, while each query keeps its
// own Seidl–Kriegel-optimal schedule and termination — the batch returns
// exactly what per-query SearchCtx calls would.
//
// Statistics attribution: a unit's read is charged (Fetched, PageReads) to
// the query whose schedule demanded it first; queries served from the shared
// unit cache pay nothing. Per-query PageReads therefore sum to the batch's
// physical reads, and that sum is at most — on overlapping workloads,
// strictly below — the sum of the same queries searched one at a time.
// RefineTime is the batch's refinement wall clock split evenly across the
// batch (refinement is a joint computation with no per-query attribution).

package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// SearchBatch runs Algorithm 1 for every query of qs with cross-query
// coalesced refinement: each data-file page is read at most once across the
// whole batch. Results and statistics are positional (results[i] answers
// qs[i]); each query's result identifiers match a standalone SearchCtx of the
// same query under the same live-ingest overlay mg (nil = plain batch; one
// overlay value serves the whole batch). See pipeline.searchBatch for
// cancellation.
func (e *Engine) SearchBatch(ctx context.Context, qs [][]float32, k int, mg *Merge) ([][]int, []QueryStats, error) {
	return e.searchBatch(ctx, qs, k, mg, nil)
}

// batchFan runs work(j) for every j in [0,n) across min(GOMAXPROCS, n)
// workers and returns the first error by index order. Cancellation is the
// work function's business: each query polls its request context inside
// phase12.
func batchFan(n int, work func(j int) error) error {
	errs := make([]error, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 2 {
		for j := 0; j < n; j++ {
			errs[j] = work(j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= n {
						return
					}
					errs[j] = work(j)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
