package core

import (
	"context"

	"exploitbit/internal/bounds"
	"exploitbit/internal/multistep"
	"exploitbit/internal/vec"
)

// searchScratch is the per-query working set of the pipeline, pooled on the
// engine it searches through so the steady-state cache-hit path performs
// zero heap allocations: the candidate states, bound arrays, query LUT,
// refinement buffers, fetch buffer and the exact-hit map all survive between
// queries and are resized only when a query is larger than any seen before.
// Both scorers run on it; the scatter-gather scorer's own state hangs off
// scatter, and each shard engine it scores through borrows a second scratch
// of this same type from that engine's pool.
type searchScratch struct {
	pipe *pipeline
	st   QueryStats
	ctx  context.Context // request context of the query in flight

	reduceScratch

	// ubTop is the serial slab kernel's running-threshold heap (distinct from
	// reduceScratch.top, which kthBoundsSq scrambles during selection).
	ubTop *vec.TopK

	lut      *bounds.QueryLUT
	fetchBuf []float32
	codes    []int

	// candIDs is the buffer Phase 1 reports the query's candidate ids into
	// (a merged search masks tombstoned ids in place).
	candIDs []int

	// The partition's outcome, left by phase12 for Phase 3, the batch
	// assembler and the scorer's settle: the true-hit identifiers (a window
	// of the caller's result slice) and the survivors (a prefix of cs).
	trueHits  []int
	remaining []candState

	mcands    []multistep.Candidate
	rbuf      []multistep.Result
	msc       multistep.Scratch
	exactByID map[int32][]float32

	// fetch is the Phase 3 fetch function, bound once per scratch so that
	// per-query calls do not allocate a closure.
	fetch multistep.Fetch

	// scatter is the scatter-gather scorer's per-query state (nil on a flat
	// engine's scratch).
	scatter *scatterState
}

func newSearchScratch(p *pipeline, dim int) *searchScratch {
	sc := &searchScratch{
		pipe:          p,
		reduceScratch: newReduceScratch(),
		fetchBuf:      make([]float32, dim),
		codes:         make([]int, dim),
		exactByID:     make(map[int32][]float32),
	}
	sc.fetch = sc.fetchPoint
	return sc
}

// fetchPoint is Phase 3's fetch: exact cache hits come from RAM, everything
// else through the scorer's point fetch, charged to the query.
func (sc *searchScratch) fetchPoint(id int) ([]float32, error) {
	if len(sc.exactByID) > 0 {
		if p, ok := sc.exactByID[int32(id)]; ok {
			return p, nil // EXACT cache hit: RAM, no I/O
		}
	}
	// Every fetch is a disk page read: an abandoned request stops paying
	// I/O here, mid-refinement, not just before Phase 3 starts.
	if err := sc.ctx.Err(); err != nil {
		return nil, err
	}
	p, err := sc.pipe.via.fetchPoint(sc, id)
	if err == nil {
		sc.st.Fetched++
		sc.st.PageReads += int64(sc.pipe.pagesPer)
	}
	return p, err
}

// ubTopFor returns the scratch's running-threshold heap re-armed for k.
func (sc *searchScratch) ubTopFor(k int) *vec.TopK {
	if sc.ubTop == nil {
		sc.ubTop = vec.NewTopK(k)
	} else {
		sc.ubTop.Reset(k)
	}
	return sc.ubTop
}

// grow returns s resized to n, reallocating only on growth beyond capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// getScratch takes a scratch from the pool armed for one query under ctx.
func (p *pipeline) getScratch(ctx context.Context) *searchScratch {
	sc := p.scratch.Get().(*searchScratch)
	sc.ctx = ctx
	sc.st = QueryStats{}
	return sc
}

func (p *pipeline) putScratch(sc *searchScratch) {
	// Do not retain request-scoped values past the query.
	sc.ctx = nil
	sc.trueHits = nil
	p.scratch.Put(sc)
}
