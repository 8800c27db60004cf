// Algorithm 1, written once: Phase-1 probe and live-ingest overlay, the
// lb_k/ub_k selection and prune / true-hit partition (reduce.go), the
// single-query Seidl–Kriegel refinement and the cross-query coalesced
// refinement of a batch. What differs between the flat Engine and the
// scatter-gather ShardedEngine — how a candidate list is scored against the
// cache, where a point or a page is read from, and whose statistics a served
// query settles into — sits behind the scorer seam below and nowhere else.

package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"exploitbit/internal/multistep"
	"exploitbit/internal/vec"
)

// scorer is the seam between the pipeline and its two implementations.
//
// The flat scorer (engine.go) scores in place: one LUT gate, one worker
// count, one kernel over the engine's own cache, straight into the query's
// candidate states; errors come back raw. The scatter-gather scorer
// (sharded.go) partitions the same candidate list over shard engines, scores
// every engaged shard through that engine's flat kernels, and gathers the
// states back into their original positions; errors come back as
// *ShardError. The flat scorer is deliberately not expressed as a one-unit
// scatter: it is the independent reference the bit-identity suites hold the
// scatter-gather scorer to.
//
// Bit-identity of the two, piece by piece:
//   - Phase 1 is one index probe in the pipeline, so the candidate list — and,
//     because scatter records each candidate's original position and the
//     gather writes scored states back to it, the candidate *order* seen by
//     selection and partition — is identical.
//   - Every shard scores through the shared quantization model, each shard's
//     HFF cache content is the global content intersected with the shard, and
//     the LUT gate sees the global candidate count, so each candidate's
//     (hit, lbSq, ubSq) triple is identical.
//   - The bound exchange only tightens early-abandonment thresholds, which
//     slabReduceRange proves output-invariant.
//   - Selection, partition and refinement are this file's code for both; only
//     the fetch is routed to the owning shard's file. Shard files share the
//     parent's dimensionality and page size, so PagesPerPoint matches and
//     the fetch multiset — hence Fetched and ΣPageReads — matches. In the
//     batch path, the unit-granular partitioner keeps whole fetch units
//     together and local page boundaries aligned with global ones, so units
//     biject with global pages and cross-query coalescing reads the same
//     number of units.
type scorer interface {
	// score fills sc.cs[i] with the cache-derived bound state of candidate
	// ids[i] for every i and records Hits, UsedLUT and ReduceWorkers (plus
	// the eager-fetch ablation's I/O) in sc.st.
	score(sc *searchScratch, q []float32, ids []int, k int) error

	// locate and admit are Phase 3's fetch on either side of the read itself
	// (readSlot.read, the one step that may run concurrently). Both run on the
	// query's goroutine: locate, at issue time, says where candidate id's
	// exact vector lives or drops it with multistep.ErrSkipCandidate (its
	// owner is being served around); admit, in schedule order, settles the
	// read's outcome (p, err) — cache admission, per-shard charge, a failing
	// shard — and returns what the refinement loop is to see.
	locate(sc *searchScratch, id int) (readLoc, error)
	admit(sc *searchScratch, loc readLoc, p []float32, err error) ([]float32, error)

	// fetchUnit maps a surviving candidate to the unit a batch reads it with
	// (a data-file page). ok false drops the candidate from the batch: its
	// owner is being served around.
	fetchUnit(sc *searchScratch, id int32) (unit int32, ok bool, err error)

	// readUnit reads the points ids, all resident on unit, into pts for
	// batch[item], the query whose schedule demanded it.
	readUnit(batch []*searchScratch, item int, unit int32, ids []int32, pts [][]float32) error

	// settle closes a served query's statistics: it folds sc.st into the
	// aggregates the scorer owns and hands it to sink (nil: nobody listens).
	settle(sc *searchScratch, q []float32, sink shardSink)
}

// shardSink receives one served query's global and per-shard statistics
// (perShard is len Shards(), valid only for the duration of the call). The
// maintainer feeds its per-slot drift windows through it.
type shardSink func(q []float32, st *QueryStats, perShard []QueryStats)

// pipeline is the part of an engine that is Algorithm 1 itself. Engine and
// ShardedEngine embed it and plug themselves in as via.
type pipeline struct {
	via   scorer
	cands CandidateFunc
	cfg   Config

	// horizon is the number of base points searched: overlay extras with an
	// id below it are already part of the dataset (see Merge).
	horizon int32

	// pagesPer and tio price a read: pages per point (or per batch unit) and
	// the simulated latency of one page.
	pagesPer int
	tio      time.Duration

	// readWait is what the most recent timed refinement read waited for the
	// device, in nanoseconds — the gate of searchScratch.openWindow.
	readWait atomic.Int64

	// scratch pools per-query working sets; see searchScratch.
	scratch sync.Pool
}

// phase12 runs Phase 1 (candidate generation) and Phase 2 (cache-based
// candidate reduction: scoring, lb_k/ub_k selection, prune / true-hit
// partition) for one query on scratch sc. True-hit identifiers are appended
// to dst and returned; the partition's outcome is left in sc.trueHits and
// sc.remaining. Both the single-query search and the batch start here.
//
// A non-nil mg folds the live-ingest overlay in: tombstoned base candidates
// are masked before scoring, and surviving delta points are scored exactly
// into the tail of the candidate states and enter the same k-th-bound
// selection. Masking only shrinks the candidate set and extras only lower
// ub_k, so the slab kernel's early-abandonment argument (thr ≥ ub_k) is
// untouched.
func (p *pipeline) phase12(sc *searchScratch, q []float32, k int, dst []int, mg *Merge) ([]int, error) {
	st := &sc.st

	// Phase 1: one index probe, whatever scores its candidates.
	t0 := time.Now()
	ids, dmax := p.cands(sc.candIDs, q, k)
	sc.candIDs = ids
	st.GenTime = time.Since(t0)
	st.Dmax = dmax

	// Phase 2: candidate reduction — no I/O by construction (unless
	// EagerFetchMisses).
	t1 := time.Now()
	var extra []MergePoint
	if mg != nil {
		if len(mg.Tombs) > 0 {
			live := ids[:0]
			for _, id := range ids {
				if !mg.dead(id) {
					live = append(live, id)
				}
			}
			ids = live
		}
		extra = mg.Extra
	}
	sc.cs = grow(sc.cs, len(ids)+len(extra))
	n := len(ids)
	for i := range extra {
		// Delta points: exact distance in RAM, lb = ub = d², no I/O. Each is
		// a candidate and a cache hit — exactly what the point would cost in
		// an engine rebuilt over the folded dataset with the point resident
		// in an exact cache. Points below the horizon are already part of the
		// searched dataset (see Merge).
		if ex := &extra[i]; ex.ID >= p.horizon && !mg.dead(int(ex.ID)) {
			d2 := vec.SqDist(q, ex.Vec)
			sc.cs[n] = candState{id: ex.ID, leaf: -1, lbSq: d2, ubSq: d2, exactPt: ex.Vec}
			n++
		}
	}
	st.Hits = n - len(ids)
	st.Candidates = n
	if err := p.via.score(sc, q, ids, k); err != nil {
		return nil, err
	}
	lbkSq, ubkSq := sc.kthBoundsSq(sc.cs[:n], k)

	// true results detected without I/O come first
	results, remaining := partitionCandidates(sc.cs[:n], lbkSq, ubkSq, p.cfg.NoTrueHitDetection, st, dst)
	sc.trueHits, sc.remaining = results[len(dst):], remaining
	st.Remaining = len(remaining)
	st.ReduceTime = time.Since(t1)
	return results, nil
}

// search is the pipeline behind every single-query entry point: SearchInto
// under a request context, with an optional live-ingest overlay (nil mg =
// plain search; see Merge for the masking and scoring semantics). A canceled
// or expired ctx abandons the query at the next check point — between
// candidate scoring strides, before Phase 3's refinement I/O starts, and
// before every point fetch — returning ctx.Err() (possibly wrapped) instead
// of burning the worker pool on an answer nobody is waiting for.
func (p *pipeline) search(ctx context.Context, q []float32, k int, dst []int, mg *Merge, sink shardSink) ([]int, QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	sc := p.getScratch(ctx)
	defer p.putScratch(sc)

	results, err := p.phase12(sc, q, k, dst, mg)
	if err != nil {
		return nil, sc.st, err
	}

	// Phase 3: multi-step refinement of the remaining candidates, in squared
	// space — sqrt is deferred to the final k results inside SearchSq. An
	// abandoned request is dropped here, before the first refinement fetch:
	// Phase 3 is where disk I/O happens, so this check is what keeps a
	// disconnected client from charging page reads to the device.
	if err := ctx.Err(); err != nil {
		return nil, sc.st, err
	}
	t2 := time.Now()
	kNeed := k - sc.st.TrueHits
	if kNeed > 0 && len(sc.remaining) > 0 {
		sc.mcands = grow(sc.mcands, len(sc.remaining))
		clear(sc.exactByID)
		for i, c := range sc.remaining {
			sc.mcands[i] = multistep.Candidate{ID: int(c.id), LB: c.lbSq, UB: c.ubSq}
			if c.exactPt != nil {
				sc.exactByID[c.id] = c.exactPt
			}
		}
		sc.openWindow()
		refined, _, err := sc.msc.SearchSq(q, sc.mcands, kNeed, sc, sc.rbuf[:0])
		if err != nil {
			return nil, sc.st, err // putScratch drains the reads still in flight
		}
		sc.rbuf = refined[:0]
		for _, r := range refined {
			results = append(results, r.ID)
		}
	}
	sc.st.RefineTime = time.Since(t2)
	sc.st.SimulatedIO = time.Duration(sc.st.PageReads) * p.tio
	p.via.settle(sc, q, sink)
	return results, sc.st, nil
}

// searchBatch runs Algorithm 1 for every query of qs with cross-query
// coalesced refinement: each fetch unit is read at most once across the
// whole batch (see batch.go for the attribution rules). Every member runs
// under the same overlay value mg (nil = plain batch), so a merged batch is
// the coalesced batch: delta points arrive with their distance in hand and
// seed the refinement, tombstoned candidates never reach it. A canceled ctx
// abandons the batch at the next check point — between scoring strides,
// before refinement, and before every unit read.
func (p *pipeline) searchBatch(ctx context.Context, qs [][]float32, k int, mg *Merge, sink shardSink) ([][]int, []QueryStats, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := len(qs)
	scs := make([]*searchScratch, n)
	for j := range scs {
		scs[j] = p.getScratch(ctx)
	}
	defer func() {
		for _, sc := range scs {
			p.putScratch(sc)
		}
	}()

	// Phases 1+2 for every query, fanned across the batch: each query scores
	// on its own scratch, so workers share nothing but the immutable caches.
	results := make([][]int, n)
	if err := batchFan(n, func(j int) error {
		var err error
		results[j], err = p.phase12(scs[j], qs[j], k, nil, mg)
		return err
	}); err != nil {
		return nil, nil, err
	}

	// Assemble the coalesced refinement: pending candidates grouped by their
	// fetch unit, with one deduplicated decode list per unit.
	t2 := time.Now()
	items := make([]multistep.BatchQuery, n)
	unitIDs := make(map[int32][]int32) // unit → ids to decode when it loads
	listed := make(map[int32]bool)     // ids already on their unit's list
	for j, sc := range scs {
		var seeds, pending []multistep.GroupCandidate
		for _, c := range sc.remaining {
			if c.exactPt != nil {
				// EXACT cache hit or delta point: distance already in hand,
				// zero I/O.
				seeds = append(seeds, multistep.GroupCandidate{ID: c.id, Group: -1, LBSq: c.lbSq})
				continue
			}
			u, ok, err := p.via.fetchUnit(sc, c.id)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			pending = append(pending, multistep.GroupCandidate{ID: c.id, Group: u, LBSq: c.lbSq})
			if !listed[c.id] {
				listed[c.id] = true
				unitIDs[u] = append(unitIDs[u], c.id)
			}
		}
		items[j] = multistep.BatchQuery{
			Q: qs[j], Seeds: seeds, Pending: pending, K: k - sc.st.TrueHits,
		}
	}

	fetch := func(unit int32, item int) ([]int32, [][]float32, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		ids := unitIDs[unit]
		pts := make([][]float32, len(ids))
		if err := p.via.readUnit(scs, item, unit, ids, pts); err != nil {
			return nil, nil, err
		}
		scs[item].st.Fetched += len(ids)
		scs[item].st.PageReads += int64(p.pagesPer)
		return ids, pts, nil
	}
	refined, _, err := multistep.SearchBatchSq(items, fetch)
	if err != nil {
		return nil, nil, err
	}

	share := time.Since(t2) / time.Duration(n)
	sts := make([]QueryStats, n)
	for j, sc := range scs {
		for _, r := range refined[j] {
			results[j] = append(results[j], r.ID)
		}
		sc.st.RefineTime = share
		sc.st.SimulatedIO = time.Duration(sc.st.PageReads) * p.tio
		p.via.settle(sc, qs[j], sink)
		sts[j] = sc.st
	}
	return results, sts, nil
}
