package core

import (
	"context"
	"time"

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

	// Phase 3's reads (the scratch is the multistep.Reads of its query): the
	// window depth openWindow chose, one slot per read that may be in flight,
	// and whether the query's first device read has been timed yet.
	depth int
	slots []readSlot
	timed bool

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
	sc.slots = []readSlot{{buf: sc.fetchBuf, done: make(chan struct{}, 1)}}
	return sc
}

// overlapFloor is the observed wait of one refinement read from which a
// query overlaps its reads. Below it a window buys nothing and a goroutine
// per read costs something: the page-cache reads of flat_cpu and http_search
// take ≈ 2 µs (the benchmark's disk.fetch_us), fewer than 1 % of their
// queries see a first read this slow, and flat_io's injected device waits
// 1.15 ms per page. 50 µs is 25× the one and 1/20 of the other.
const overlapFloor = 50 * time.Microsecond

// readLoc is where a candidate's exact vector is read from, as the scorer's
// locate resolved it on the query's goroutine.
type readLoc struct {
	eng   *Engine // its point file holds the vector; admission feeds its cache
	local int     // the point's id in eng's id space
	shard int32   // owning shard (scatter-gather scorer only)
}

// readSlot is one read of Phase 3's window. The query's goroutine fills loc
// and timed before the read starts and takes p and err after done fires; in
// between, read owns them and buf — scratch-owned memory, which is why
// putScratch drains the window an aborted query leaves behind.
type readSlot struct {
	loc     readLoc
	buf     []float32
	p       []float32
	err     error
	located bool // a device read: settles through the scorer's admit
	flying  bool // read runs on a goroutine and fires done; cleared on receipt
	timed   bool // the query's first device read: its wait feeds the gate
	round   int  // the query's RefineWaits when the read was issued
	done    chan struct{}
}

// read performs the slot's device read — retries, backoff and ctx polling
// inside FetchCtx as ever — and nothing else: it is the only part of a search
// that may run off the query's goroutine. The clock pair sits around FetchCtx
// alone so the gate sees the device's wait, not the scheduler's.
func (sl *readSlot) read(ctx context.Context, p *pipeline) {
	var t0 time.Time
	if sl.timed {
		t0 = time.Now()
	}
	sl.p, sl.err = sl.loc.eng.pf.FetchCtx(ctx, sl.loc.local, sl.buf)
	if sl.timed && sl.err == nil {
		p.readWait.Store(int64(time.Since(t0)))
	}
	if sl.flying {
		sl.done <- struct{}{}
	}
}

// openWindow arms the scratch for one refinement. Reads overlap only when the
// last timed read on this pipeline waited at least overlapFloor; otherwise
// the depth is 1, no goroutine starts and every read runs inline in Await.
func (sc *searchScratch) openWindow() {
	sc.depth, sc.timed = 1, false
	if sc.pipe.readWait.Load() < int64(overlapFloor) {
		return
	}
	sc.depth = multistep.MaxDepth
	for len(sc.slots) < sc.depth {
		sc.slots = append(sc.slots, readSlot{buf: make([]float32, len(sc.fetchBuf)), done: make(chan struct{}, 1)})
	}
}

// Depth, Issue and Await make the scratch Phase 3's multistep.Reads.
func (sc *searchScratch) Depth() int { return sc.depth }

// Issue resolves candidate id on the query's goroutine — exact cache hits
// come from RAM, a canceled request or a failed shard's candidate is settled
// on the spot — and, in a window, starts the device read.
func (sc *searchScratch) Issue(slot, id int) {
	sl := &sc.slots[slot]
	sl.located = false
	if len(sc.exactByID) > 0 {
		if p, ok := sc.exactByID[int32(id)]; ok {
			sl.p, sl.err = p, nil // EXACT cache hit: RAM, no I/O
			return
		}
	}
	// Every fetch is a disk page read: an abandoned request stops paying
	// I/O here, mid-refinement, not just before Phase 3 starts.
	sl.p, sl.err = nil, sc.ctx.Err()
	if sl.err == nil {
		sl.loc, sl.err = sc.pipe.via.locate(sc, id)
	}
	if sl.err != nil {
		return
	}
	sl.located = true
	sl.timed, sc.timed = !sc.timed, true
	sl.round = sc.st.RefineWaits
	if sc.depth > 1 {
		sl.flying = true
		go sl.read(sc.ctx, sc.pipe)
	}
}

// Await collects slot's read — performing it here when the depth is 1 — and
// settles it through the scorer's admit, charged to the query. Await runs in
// schedule order, so admission and every counter move as they do serially.
func (sc *searchScratch) Await(slot, _ int) ([]float32, error) {
	sl := &sc.slots[slot]
	if !sl.located {
		return sl.p, sl.err
	}
	if !sl.flying {
		sl.read(sc.ctx, sc.pipe)
		sc.st.RefineWaits++
	} else {
		select {
		case <-sl.done:
		default:
			<-sl.done
			// A wait of its own only if the read was issued after the last
			// counted wait ended; otherwise it spent that wait in flight.
			if sl.round == sc.st.RefineWaits {
				sc.st.RefineWaits++
			}
		}
		sl.flying = false
	}
	p, err := sc.pipe.via.admit(sc, sl.loc, sl.p, sl.err)
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
	// An aborted refinement leaves its window in flight, reading into this
	// scratch's buffers: wait the reads out before anyone else can own them.
	for i := range sc.slots {
		if sl := &sc.slots[i]; sl.flying {
			<-sl.done
			sl.flying = false
		}
	}
	// Do not retain request-scoped values past the query.
	sc.ctx = nil
	sc.trueHits = nil
	p.scratch.Put(sc)
}
