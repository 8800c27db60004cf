// Batch search: Phase-2 reduction for every query of a burst in parallel on
// the shared core, then one cross-query coalesced refinement through
// multistep.SearchBatchSq. Correlated queries' surviving candidates land on
// overlapping data-file pages (or tree leaves); refining them together reads
// each unit once for the whole batch instead of once per query, while each
// query keeps its own Seidl–Kriegel-optimal schedule and termination — the
// batch returns exactly what per-query SearchCtx calls would.
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
	"time"

	"exploitbit/internal/multistep"
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

// SearchBatch searches every query of qs for its k nearest over the tree
// index, loading each leaf at most once across the whole batch during
// refinement. Phase 2's own leaf loads (uncached leaves visited in bound
// order) remain per-query; the coalescing applies to Phase 3, where the
// bulk of correlated batches' I/O overlaps. Results match standalone
// SearchCtx calls query for query.
func (e *TreeEngine) SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []QueryStats, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := len(qs)
	scs := make([]*treeScratch, n)
	for j := range scs {
		scs[j] = e.getScratch()
		scs[j].ctx = ctx
		scs[j].st = QueryStats{}
		scs[j].q = qs[j]
	}
	defer func() {
		for _, sc := range scs {
			e.putScratch(sc)
		}
	}()

	results := make([][]int, n)
	if err := batchFan(n, func(j int) error {
		var err error
		results[j], err = e.phase12(ctx, scs[j], qs[j], k, nil)
		return err
	}); err != nil {
		return nil, nil, err
	}

	t2 := time.Now()
	items := make([]multistep.BatchQuery, n)
	for j := range qs {
		sc := scs[j]
		clear(sc.skip)
		for _, id := range results[j] {
			sc.skip[int32(id)] = true
		}
		// Every resident of a visited leaf is one of this query's candidates,
		// so the whole leaf feeds the selection (OwnOnly false), exactly as in
		// the per-query SearchGroupsSq.
		items[j] = multistep.BatchQuery{
			Q: qs[j], Seeds: sc.seeds, Pending: sc.pend,
			K: k - sc.st.TrueHits, Skip: sc.skip,
		}
	}
	fetch := func(unit int32, item int) ([]int32, [][]float32, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return e.loadLeaf(int(unit), &scs[item].st)
	}
	refined, _, err := multistep.SearchBatchSq(items, fetch)
	if err != nil {
		return nil, nil, err
	}

	share := time.Since(t2) / time.Duration(n)
	sts := make([]QueryStats, n)
	for j := range qs {
		for _, r := range refined[j] {
			results[j] = append(results[j], r.ID)
		}
		st := &scs[j].st
		st.RefineTime = share
		st.SimulatedIO = time.Duration(st.PageReads) * e.store.Tio()
		e.agg.Add(*st)
		sts[j] = *st
	}
	return results, sts, nil
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
