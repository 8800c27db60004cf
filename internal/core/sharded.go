// Sharded scatter-gather execution of Algorithm 1. The dataset is split
// into N shard units (internal/shard decides membership); each unit owns a
// full Engine over its local id space — its own point file, candidate
// filter and cache — while the quantization model (histogram, bounds table,
// codec) is built once over the global profile and shared by pointer, and
// each HFF cache holds exactly the shard-local slice of the global HFF
// ranking. The router runs Phase 1 once, scatters candidates to their
// owners, scores every engaged shard concurrently with the running k-th
// upper bound exchanged through a crossBound cell, gathers the per-shard
// bound states back into the global candidate order, and runs one global
// lb_k/ub_k selection, partition and Seidl–Kriegel refinement.
//
// Bit-identity with the unsharded engine, piece by piece:
//   - Phase 1 is the same single index probe, so the candidate list — and,
//     because scatter records each candidate's original position and the
//     gather writes scored states back to it, the candidate *order* seen by
//     selection and partition — is identical.
//   - Every shard scores through the shared model, and each shard's HFF
//     cache content is the global content intersected with the shard, so
//     each candidate's (hit, lbSq, ubSq) triple is identical.
//   - The bound exchange only tightens early-abandonment thresholds, which
//     slabReduceRange proves output-invariant.
//   - Refinement runs one global schedule over the merged survivors; only
//     the fetch is routed to the owning shard's file. Shard files share the
//     parent's dimensionality and page size, so PagesPerPoint matches and
//     the fetch multiset — hence Fetched and ΣPageReads — matches. In the
//     batch path, the unit-granular partitioner keeps whole fetch units
//     together and local page boundaries aligned with global ones, so units
//     biject with global pages and cross-query coalescing reads the same
//     number of units.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"exploitbit/internal/cache"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/multistep"
	"exploitbit/internal/vec"
)

// ShardSpec describes one shard unit to the sharded constructors: its point
// file, its sub-dataset (both in local id space) and the local→global id
// map (the shard's members in local order).
type ShardSpec struct {
	PF        *disk.PointFile
	DS        *dataset.Dataset
	GlobalIDs []int32
}

// shardUnit is one shard's mutable slot inside the router. The engine
// pointer is RCU-swapped by the maintainer; the point file, sub-dataset and
// id map are immutable for the router's lifetime, so an in-flight query keeps
// fetching from the same file no matter how often the cache rebuilds.
type shardUnit struct {
	eng atomic.Pointer[Engine]
	ShardSpec

	// agg survives engine swaps (and, through refold, router swaps), unlike
	// the per-engine aggregate.
	agg *atomicAggregate

	// quarantined marks a shard whose storage failed permanently: under
	// degraded serving its candidates are skipped without touching the file
	// until a rebuild clears the flag. fetchFailures counts the permanent
	// fetch failures that put (and keep) it there.
	quarantined   atomic.Bool
	fetchFailures atomic.Int64
}

// shardFanThreshold is the global candidate count above which shard scoring
// fans out to one goroutine per engaged shard. Below it the shards are
// scored sequentially on the caller — results are bit-identical either way,
// and small queries should not pay goroutine startup N times.
const shardFanThreshold = 2048

// ShardedEngine runs Algorithm 1 scatter-gather across shard units. It is
// safe for concurrent use under the same rules as Engine.
type ShardedEngine struct {
	cands CandidateFunc
	cfg   Config

	owner []int32 // global id → shard
	local []int32 // global id → local id
	units []*shardUnit

	// unitBase[s] offsets shard s's local PageOf values into one global
	// fetch-unit id space for batch coalescing; unitBase[N] caps the range.
	unitBase []int32

	pagesPer int
	tio      time.Duration

	// degradedOK allows queries to complete over surviving shards when a
	// shard's storage fails permanently (results flagged Degraded). Off, a
	// failed shard fails every query that touches it.
	degradedOK atomic.Bool

	scratch sync.Pool
	agg     *atomicAggregate
}

// SingleShard describes a dataset served whole as the one unit of a router:
// the system's own point file under identity id maps — no partition, no
// second file. It is the N = 1 input of NewShardedEngine and NewMaintainer.
func SingleShard(pf *disk.PointFile, ds *dataset.Dataset) (specs []ShardSpec, owner, local []int32) {
	n := ds.Len()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return []ShardSpec{{PF: pf, DS: ds, GlobalIDs: ids}}, make([]int32, n), ids
}

// newRouter validates a shard layout and assembles the router around it —
// id maps, units without engines, fetch-unit offsets, scratch pool. Every
// construction path (NewShardedEngine, LoadShardedEngine, refold) starts
// here and then installs one engine per unit.
func newRouter(specs []ShardSpec, owner, local []int32, cands CandidateFunc) (*ShardedEngine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: sharded engine needs at least one shard")
	}
	total := 0
	for s, spec := range specs {
		if spec.PF == nil || spec.DS == nil {
			return nil, fmt.Errorf("core: shard %d is missing its point file or dataset", s)
		}
		if len(spec.GlobalIDs) != spec.DS.Len() {
			return nil, fmt.Errorf("core: shard %d id map covers %d of %d points", s, len(spec.GlobalIDs), spec.DS.Len())
		}
		total += spec.DS.Len()
	}
	if len(owner) != total || len(local) != total {
		return nil, fmt.Errorf("core: owner/local maps cover %d/%d ids, shards hold %d points", len(owner), len(local), total)
	}
	se := &ShardedEngine{
		cands:    cands,
		owner:    owner,
		local:    local,
		pagesPer: specs[0].PF.PagesPerPoint(),
		tio:      specs[0].PF.Tio(),
		unitBase: make([]int32, len(specs)+1),
		agg:      new(atomicAggregate),
	}
	for s, spec := range specs {
		se.units = append(se.units, &shardUnit{ShardSpec: spec, agg: new(atomicAggregate)})
		maxPage, err := spec.PF.PageOf(spec.DS.Len() - 1)
		if err != nil {
			return nil, err
		}
		se.unitBase[s+1] = se.unitBase[s] + int32(maxPage) + 1
	}
	se.scratch.New = func() any { return newRouterScratch(se) }
	return se, nil
}

// refold returns a router over the same single point file after a live-ingest
// compaction extended it to ds: fresh identity id maps and the candidate
// generator rebuilt over the fold, with the configuration, the degraded-mode
// switch and the accumulated statistics carried over. Its unit has no engine
// yet — the maintainer installs one and then publishes the router, so the
// Phase-1 generator, the id horizon and the engine change in one atomic swap.
func (se *ShardedEngine) refold(ds *dataset.Dataset, cands CandidateFunc) (*ShardedEngine, error) {
	if len(se.units) != 1 {
		return nil, fmt.Errorf("core: compaction needs a 1-unit router, have %d units", len(se.units))
	}
	old := se.units[0]
	specs, owner, local := SingleShard(old.PF, ds)
	ne, err := newRouter(specs, owner, local, cands)
	if err != nil {
		return nil, err
	}
	ne.cfg = se.cfg
	ne.degradedOK.Store(se.degradedOK.Load())
	ne.agg = se.agg
	ne.units[0].agg = old.agg
	ne.units[0].fetchFailures.Store(old.fetchFailures.Load())
	return ne, nil
}

// NewShardedEngine builds the shared model once from the global profile,
// then a full engine per shard over the shard's point file with the
// shard-local slice of the global HFF content (LRU budgets are split
// proportionally to shard size).
func NewShardedEngine(specs []ShardSpec, owner, local []int32, prof *Profile, cands CandidateFunc, cfg Config) (*ShardedEngine, error) {
	se, err := newRouter(specs, owner, local, cands)
	if err != nil {
		return nil, err
	}
	if n := prof.DS.Len(); len(owner) != n {
		return nil, fmt.Errorf("core: shards hold %d points, dataset has %d", len(owner), n)
	}

	model, content, capacity, err := newModel(prof, cfg)
	if err != nil {
		return nil, err
	}
	se.cfg = model.cfg // withDefaults applied, CVA τ recorded

	// The shard-local slices of the global HFF content, preserving the
	// global rank order inside each shard.
	localContent := make([][]int, len(specs))
	for _, g := range content {
		s := owner[g]
		localContent[s] = append(localContent[s], int(local[g]))
	}
	lruCaps := splitCapacity(capacity, specs)

	for s, spec := range specs {
		e := &Engine{
			ds:             spec.DS,
			pf:             spec.PF,
			cands:          se.ShardCandidates(s),
			cfg:            model.cfg,
			codec:          model.codec,
			table:          model.table,
			ghist:          model.ghist,
			phist:          model.phist,
			md:             model.md,
			histSpaceBytes: model.histSpaceBytes,
			histBuildTime:  model.histBuildTime,
			globalIDs:      spec.GlobalIDs,
		}
		capS := len(localContent[s])
		if model.cfg.Policy == cache.LRU {
			capS = lruCaps[s]
		}
		e.fillCache(localContent[s], capS)
		e.finalize()
		se.swapEngine(s, e)
	}
	return se, nil
}

// splitCapacity divides an LRU item budget across shards proportionally to
// shard size, handing leftover slots to the lowest-numbered shards.
func splitCapacity(capacity int, specs []ShardSpec) []int {
	total := 0
	for _, spec := range specs {
		total += spec.DS.Len()
	}
	caps := make([]int, len(specs))
	used := 0
	for s, spec := range specs {
		caps[s] = capacity * spec.DS.Len() / total
		used += caps[s]
	}
	for s := 0; used < capacity && s < len(caps); s++ {
		caps[s]++
		used++
	}
	return caps
}

// ShardCandidates returns the global candidate generator filtered to shard
// s, with ids translated to the shard's local space — what a standalone
// engine over that shard would see. The maintainer profiles rebuild windows
// through it.
func (se *ShardedEngine) ShardCandidates(s int) CandidateFunc {
	return func(q []float32, k int) ([]int, float64) {
		ids, dmax := se.cands(q, k)
		var out []int
		for _, g := range ids {
			if se.owner[g] == int32(s) {
				out = append(out, int(se.local[g]))
			}
		}
		return out, dmax
	}
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.units) }

// Dim returns the dataset dimensionality.
func (se *ShardedEngine) Dim() int { return se.units[0].PF.Dim() }

// HomeShard routes an identifier to its owning shard: base points belong to
// the shard holding their slot, points beyond the router's horizon (live
// delta points) to the shard that would receive them round-robin when a
// future fold re-partitions.
func (se *ShardedEngine) HomeShard(id int) int {
	if id >= 0 && id < len(se.owner) {
		return int(se.owner[id])
	}
	return id % len(se.units)
}

// Engine returns shard s's current engine (the RCU slot's value at call
// time).
func (se *ShardedEngine) Engine(s int) *Engine { return se.units[s].eng.Load() }

// swapEngine installs a freshly built engine into shard s. Callers (the
// constructors and the maintainer) must build eng over the unit's point file
// and id map.
func (se *ShardedEngine) swapEngine(s int, eng *Engine) { se.units[s].eng.Store(eng) }

// SetDegradedOK enables (or disables) degraded-mode serving: completing
// queries over surviving shards when a shard's storage fails permanently.
func (se *ShardedEngine) SetDegradedOK(ok bool) { se.degradedOK.Store(ok) }

// DegradedOK reports whether degraded-mode serving is enabled.
func (se *ShardedEngine) DegradedOK() bool { return se.degradedOK.Load() }

// Quarantine marks shard s failed: under degraded serving its candidates are
// skipped without touching its storage.
func (se *ShardedEngine) Quarantine(s int) { se.units[s].quarantined.Store(true) }

// ClearQuarantine returns shard s to service (after a successful rebuild).
func (se *ShardedEngine) ClearQuarantine(s int) { se.units[s].quarantined.Store(false) }

// Quarantined reports whether shard s is quarantined.
func (se *ShardedEngine) Quarantined(s int) bool { return se.units[s].quarantined.Load() }

// SetRetry installs the transient-fault retry policy on every shard's
// backing device.
func (se *ShardedEngine) SetRetry(rp disk.RetryPolicy) {
	for _, u := range se.units {
		u.PF.SetRetry(rp)
	}
}

// DiskStats sums the device counters (including fault-handling activity)
// across every shard's point file.
func (se *ShardedEngine) DiskStats() disk.Stats {
	var t disk.Stats
	for _, u := range se.units {
		s := u.PF.Stats()
		t.PageReads += s.PageReads
		t.PageWrites += s.PageWrites
		t.Retries += s.Retries
		t.TransientErrors += s.TransientErrors
		t.PermanentErrors += s.PermanentErrors
	}
	return t
}

// CacheCapacity sums the per-shard cache capacities.
func (se *ShardedEngine) CacheCapacity() int {
	t := 0
	for s := range se.units {
		t += se.Engine(s).CacheCapacity()
	}
	return t
}

// CacheLen sums the per-shard cached item counts.
func (se *ShardedEngine) CacheLen() int {
	t := 0
	for s := range se.units {
		t += se.Engine(s).CacheLen()
	}
	return t
}

// HistogramSpaceBytes reports the shared model's histogram footprint (the
// model is built once; shards reference it).
func (se *ShardedEngine) HistogramSpaceBytes() int { return se.Engine(0).HistogramSpaceBytes() }

// Aggregate returns the accumulated cross-shard statistics.
func (se *ShardedEngine) Aggregate() Aggregate { return se.agg.Load() }

// ResetStats clears the global and per-shard accumulated statistics.
func (se *ShardedEngine) ResetStats() {
	se.agg.Reset()
	for _, u := range se.units {
		u.agg.Reset()
	}
}

// ShardAggregate is one shard's statistics block for /stats and /metrics.
type ShardAggregate struct {
	Shard         int
	Points        int
	CachedItems   int
	CacheCapacity int
	Agg           Aggregate

	// Quarantined reports the shard's current fault state; FetchFailures the
	// permanent fetch failures observed on it.
	Quarantined   bool
	FetchFailures int64
}

// ShardAggregates snapshots every shard's accumulated statistics.
func (se *ShardedEngine) ShardAggregates() []ShardAggregate {
	out := make([]ShardAggregate, len(se.units))
	for s, u := range se.units {
		e := u.eng.Load()
		out[s] = ShardAggregate{
			Shard:         s,
			Points:        e.ds.Len(),
			CachedItems:   e.CacheLen(),
			CacheCapacity: e.CacheCapacity(),
			Agg:           u.agg.Load(),
			Quarantined:   u.quarantined.Load(),
			FetchFailures: u.fetchFailures.Load(),
		}
	}
	return out
}

// routerScratch is the pooled per-query working set of the sharded search:
// the global candidate states, the per-shard scatter lists, the per-query
// engine snapshot, and the refinement buffers. Mirrors searchScratch.
type routerScratch struct {
	se  *ShardedEngine
	st  QueryStats
	ctx context.Context

	reduceScratch

	sids    [][]int      // per-shard local candidate ids
	pos     [][]int32    // per-shard original candidate positions
	engs    []*Engine    // per-query RCU snapshot of every shard engine
	shardSt []QueryStats // per-shard slice of this query's statistics
	errs    []error      // per-shard scoring errors
	xb      crossBound

	// Degraded-mode state, snapshotted per query: quar is each shard's
	// quarantine flag at scatter time, failed marks shards this query is
	// serving around (quarantined shards it touched, plus shards that failed
	// permanently mid-query).
	degradedOK bool
	quar       []bool
	failed     []bool

	fetchBuf []float32
	codes    []int

	// mergeIDs holds the tombstone-filtered Phase-1 ids of a merged search;
	// candidate funcs may return shared slices, so filtering never happens in
	// place.
	mergeIDs []int

	mcands    []multistep.Candidate
	rbuf      []multistep.Result
	msc       multistep.Scratch
	exactByID map[int32][]float32
	fetch     multistep.Fetch
}

func newRouterScratch(se *ShardedEngine) *routerScratch {
	n := len(se.units)
	rs := &routerScratch{
		se:            se,
		reduceScratch: newReduceScratch(),
		sids:          make([][]int, n),
		pos:           make([][]int32, n),
		engs:          make([]*Engine, n),
		shardSt:       make([]QueryStats, n),
		errs:          make([]error, n),
		quar:          make([]bool, n),
		failed:        make([]bool, n),
		fetchBuf:      make([]float32, se.Dim()),
		codes:         make([]int, se.Dim()),
		exactByID:     make(map[int32][]float32),
	}
	rs.fetch = rs.fetchPoint
	return rs
}

func (se *ShardedEngine) getScratch() *routerScratch {
	return se.scratch.Get().(*routerScratch)
}

func (se *ShardedEngine) putScratch(rs *routerScratch) {
	rs.ctx = nil
	se.scratch.Put(rs)
}

// failShard records a permanent storage failure on shard s: the query serves
// around it from here on, and the shard is quarantined so later queries skip
// it without touching the broken file until a rebuild clears the flag.
func (rs *routerScratch) failShard(s int) {
	rs.failed[s] = true
	u := rs.se.units[s]
	u.fetchFailures.Add(1)
	u.quarantined.Store(true)
}

// fetchPoint is the sharded Phase-3 fetch: global ids are routed to the
// owning shard's file, charging I/O both globally and to the shard. A
// candidate owned by a failed shard is dropped from the schedule (degraded
// mode); a fetch that fails permanently fails its shard the same way.
func (rs *routerScratch) fetchPoint(id int) ([]float32, error) {
	if len(rs.exactByID) > 0 {
		if p, ok := rs.exactByID[int32(id)]; ok {
			return p, nil // EXACT cache hit: RAM, no I/O
		}
	}
	if err := rs.ctx.Err(); err != nil {
		return nil, err
	}
	se := rs.se
	s := se.owner[id]
	if rs.failed[s] {
		return nil, fmt.Errorf("core: shard %d failed: %w", s, multistep.ErrSkipCandidate)
	}
	e := rs.engs[s]
	lid := int(se.local[id])
	p, err := e.pf.FetchCtx(rs.ctx, lid, rs.fetchBuf)
	if err != nil {
		if rs.degradedOK && disk.IsPermanent(err) {
			rs.failShard(int(s))
			return nil, fmt.Errorf("core: shard %d failed (%v): %w", s, err, multistep.ErrSkipCandidate)
		}
		return nil, &ShardError{Shard: int(s), Err: err}
	}
	rs.st.Fetched++
	rs.st.PageReads += int64(se.pagesPer)
	rs.shardSt[s].Fetched++
	rs.shardSt[s].PageReads += int64(se.pagesPer)
	if e.cfg.Policy == cache.LRU {
		e.admitLRU(lid, p, rs.codes)
	}
	return p, nil
}

// phase12 is the scatter-gather counterpart of Engine.phase12: one global
// Phase 1, concurrent per-shard Phase-2 scoring with bound exchange, then
// global selection and partition over the gathered states. A non-nil mg
// folds the live-ingest overlay in exactly as Engine.phase12 does: masked
// base candidates never scatter, and surviving delta points are scored
// exactly into the tail of the global candidate states.
func (se *ShardedEngine) phase12(ctx context.Context, rs *routerScratch, q []float32, k int, dst []int, mg *Merge) ([]int, []candState, error) {
	st := &rs.st

	// Phase 1 once, globally: every shard prunes against candidates of the
	// same probe, and the candidate order is the unsharded one.
	t0 := time.Now()
	ids, dmax := se.cands(q, k)
	st.GenTime = time.Since(t0)
	st.Dmax = dmax

	nExtra := 0
	if mg != nil {
		if mg.Deleted != nil {
			rs.mergeIDs = rs.mergeIDs[:0]
			for _, id := range ids {
				if !mg.Deleted(int32(id)) {
					rs.mergeIDs = append(rs.mergeIDs, id)
				}
			}
			ids = rs.mergeIDs
		}
		horizon := int32(len(se.owner))
		for i := range mg.Extra {
			if mg.extraLive(&mg.Extra[i], horizon) {
				nExtra++
			}
		}
	}
	st.Candidates = len(ids) + nExtra

	t1 := time.Now()
	engaged := 0
	for s, u := range se.units {
		rs.engs[s] = u.eng.Load() // one RCU snapshot per query per shard
		rs.sids[s] = rs.sids[s][:0]
		rs.pos[s] = rs.pos[s][:0]
		rs.shardSt[s] = QueryStats{}
		rs.errs[s] = nil
		rs.quar[s] = u.quarantined.Load()
		rs.failed[s] = false
	}
	// cs is sized before the scatter so quarantined shards' candidate slots
	// can be neutralized in place (the scratch is pooled — a stale slot would
	// otherwise hold a previous query's state). Delta extras fill the tail
	// beyond the scattered base candidates.
	rs.cs = grow(rs.cs, len(ids)+nExtra)
	inf := math.Inf(1)
	for i, g := range ids {
		s := se.owner[g]
		if rs.quar[s] {
			// Quarantined owner: refuse the query unless degraded serving is
			// on; under it, neutralize the candidate (+Inf bounds prune it or
			// route it to the skip path) and flag the shard as served-around.
			if !rs.degradedOK {
				return nil, nil, &ShardError{Shard: int(s), Err: ErrShardQuarantined}
			}
			rs.failed[s] = true
			rs.cs[i] = candState{id: int32(g), leaf: -1, lbSq: inf, ubSq: inf}
			continue
		}
		if len(rs.sids[s]) == 0 {
			engaged++
		}
		rs.sids[s] = append(rs.sids[s], int(se.local[g]))
		rs.pos[s] = append(rs.pos[s], int32(i))
	}
	rs.xb.reset()

	run := func(s int) error {
		e := rs.engs[s]
		sc := e.getScratch()
		defer e.putScratch(sc)
		sc.ctx = ctx
		sc.st = QueryStats{}
		sids := rs.sids[s]
		sc.cs = grow(sc.cs, len(sids))
		// The LUT gate sees the global candidate count so every shard makes
		// the same build-vs-scan choice the unsharded engine would.
		lut := e.queryLUT(q, len(ids), sc)
		sc.st.UsedLUT = lut != nil
		workers := e.reduceWorkers(len(sids))
		sc.st.ReduceWorkers = workers
		var err error
		switch {
		case e.slab != nil && !e.cfg.EagerFetchMisses:
			err = e.reduceSlab(ctx, q, sids, sc.cs, lut, k, workers, sc, &rs.xb)
		case workers > 1:
			err = e.reduceParallel(ctx, q, sids, sc.cs, lut, workers, &sc.st)
		default:
			err = e.reduceSerial(ctx, q, sids, sc.cs, lut, sc)
		}
		if err != nil {
			return err
		}
		// Gather: write each scored state back to its original global
		// position, translating the id to global space.
		gids := se.units[s].GlobalIDs
		for i := range sids {
			c := sc.cs[i]
			c.id = gids[c.id]
			rs.cs[rs.pos[s][i]] = c
		}
		sc.st.Candidates = len(sids)
		rs.shardSt[s] = sc.st
		return nil
	}

	if engaged > 1 && len(ids) >= shardFanThreshold {
		var wg sync.WaitGroup
		for s := range se.units {
			if len(rs.sids[s]) == 0 {
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				rs.errs[s] = run(s)
			}(s)
		}
		wg.Wait()
	} else {
		for s := range se.units {
			if len(rs.sids[s]) == 0 {
				continue
			}
			rs.errs[s] = run(s)
		}
	}
	for s, err := range rs.errs {
		if err == nil {
			continue
		}
		if rs.degradedOK && disk.IsPermanent(err) {
			// The shard's storage died mid-scoring (eager-fetch path): fail
			// it, neutralize its candidate slots, and serve on.
			rs.failShard(s)
			for _, p := range rs.pos[s] {
				rs.cs[p] = candState{id: int32(ids[p]), leaf: -1, lbSq: inf, ubSq: inf}
			}
			rs.shardSt[s] = QueryStats{}
			continue
		}
		return nil, nil, &ShardError{Shard: s, Err: err}
	}

	for s := range se.units {
		st.Hits += rs.shardSt[s].Hits
		st.Fetched += rs.shardSt[s].Fetched // eager-fetch ablation path
		st.PageReads += rs.shardSt[s].PageReads
		if rs.shardSt[s].UsedLUT {
			st.UsedLUT = true
		}
	}
	st.ReduceWorkers = engaged

	if nExtra > 0 {
		// Delta points: exact distance in RAM, lb = ub = d², no I/O, no
		// owning shard yet — they join the global selection but are excluded
		// from the per-shard attribution below (their ids lie beyond the
		// owner map).
		horizon := int32(len(se.owner))
		j := len(ids)
		for i := range mg.Extra {
			ex := &mg.Extra[i]
			if !mg.extraLive(ex, horizon) {
				continue
			}
			d2 := vec.SqDist(q, ex.Vec)
			rs.cs[j] = candState{id: ex.ID, leaf: -1, lbSq: d2, ubSq: d2, exactPt: ex.Vec}
			j++
		}
		st.Hits += nExtra
	}

	// Global selection over the gathered states — the same values in the
	// same order as the unsharded engine's kthBoundsSq sees.
	cs := rs.cs[:len(ids)+nExtra]
	lbkSq, ubkSq := rs.kthBoundsSq(cs, k)

	// Attribute the partition per shard before partitionCandidates compacts
	// cs in place, using the same predicates in the same order. Only base
	// candidates attribute — extras carry ids outside the owner map.
	for i := range cs[:len(ids)] {
		c := &cs[i]
		sst := &rs.shardSt[se.owner[c.id]]
		switch {
		case c.lbSq > ubkSq:
			sst.Pruned++
		case !se.cfg.NoTrueHitDetection && !c.known && c.ubSq < lbkSq:
			sst.TrueHits++
		default:
			sst.Remaining++
		}
	}

	results, remaining := partitionCandidates(cs, lbkSq, ubkSq, se.cfg.NoTrueHitDetection, st, dst)
	st.Remaining = len(remaining)
	st.ReduceTime = time.Since(t1)
	return results, remaining, nil
}

// shardSink receives one served query's global and per-shard statistics
// (perShard is len Shards(), valid only for the duration of the call). The
// maintainer feeds its per-slot drift windows through it.
type shardSink func(q []float32, st *QueryStats, perShard []QueryStats)

// Search runs the scatter-gather Algorithm 1; see Engine.Search.
func (se *ShardedEngine) Search(q []float32, k int) ([]int, QueryStats, error) {
	return se.search(context.Background(), q, k, nil, nil, nil)
}

// SearchInto is Search appending result identifiers to dst.
func (se *ShardedEngine) SearchInto(q []float32, k int, dst []int) ([]int, QueryStats, error) {
	return se.search(context.Background(), q, k, dst, nil, nil)
}

// SearchCtx is the full-signature sharded search: SearchInto under a request
// context with the optional live-ingest overlay (see Merge) folded into the
// scatter-gather pipeline. Results are bit-identical to Engine.SearchCtx.
func (se *ShardedEngine) SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *Merge) ([]int, QueryStats, error) {
	return se.search(ctx, q, k, dst, mg, nil)
}

// search is the scatter-gather pipeline behind every entry point; a non-nil
// sink additionally receives the served query's per-shard statistics.
func (se *ShardedEngine) search(ctx context.Context, q []float32, k int, dst []int, mg *Merge, sink shardSink) ([]int, QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	rs := se.getScratch()
	defer se.putScratch(rs)
	rs.ctx = ctx
	rs.st = QueryStats{}
	rs.degradedOK = se.degradedOK.Load()
	st := &rs.st

	results, remaining, err := se.phase12(ctx, rs, q, k, dst, mg)
	if err != nil {
		return nil, rs.st, err
	}

	// Phase 3: one global refinement schedule — identical candidate order
	// and bounds, with only the fetch routed to the owning shard.
	if err := ctx.Err(); err != nil {
		return nil, rs.st, err
	}
	t2 := time.Now()
	kNeed := k - st.TrueHits
	if kNeed > 0 && len(remaining) > 0 {
		rs.mcands = grow(rs.mcands, len(remaining))
		clear(rs.exactByID)
		for i, c := range remaining {
			rs.mcands[i] = multistep.Candidate{ID: int(c.id), LB: c.lbSq, UB: c.ubSq}
			if c.exactPt != nil {
				rs.exactByID[c.id] = c.exactPt
			}
		}
		refined, _, err := rs.msc.SearchSq(q, rs.mcands, kNeed, rs.fetch, rs.rbuf[:0])
		if err != nil {
			return nil, rs.st, err
		}
		rs.rbuf = refined[:0]
		for _, r := range refined {
			results = append(results, r.ID)
		}
	}
	st.RefineTime = time.Since(t2)
	st.SimulatedIO = time.Duration(st.PageReads) * se.tio
	for s := range se.units {
		if rs.failed[s] {
			st.Degraded = true
			st.FailedShards = append(st.FailedShards, s)
		}
	}

	rs.account(q, sink)
	return results, rs.st, nil
}

// account folds one served query into the router's, the engaged units' and
// their serving engines' aggregates, then hands the statistics to sink.
func (rs *routerScratch) account(q []float32, sink shardSink) {
	se := rs.se
	se.agg.Add(rs.st)
	for s, u := range se.units {
		if sst := &rs.shardSt[s]; sst.Candidates > 0 || sst.Fetched > 0 {
			sst.SimulatedIO = time.Duration(sst.PageReads) * se.tio
			u.agg.Add(*sst)
			rs.engs[s].agg.Add(*sst)
		}
	}
	if sink != nil {
		sink(q, &rs.st, rs.shardSt)
	}
}

// SearchBatch is Engine.SearchBatch scatter-gathered across shards:
// per-query Phase 1+2 through the router, then one cross-query coalesced
// refinement whose fetch units are (shard, local unit) pairs. Because the
// partitioner is fetch-unit granular, those units biject with the unsharded
// file's pages and per-query PageReads match the unsharded batch exactly.
func (se *ShardedEngine) SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []QueryStats, error) {
	return se.searchBatch(ctx, qs, k, nil)
}

// searchBatch is SearchBatch with the per-query statistics sink of search.
func (se *ShardedEngine) searchBatch(ctx context.Context, qs [][]float32, k int, sink shardSink) ([][]int, []QueryStats, error) {
	if len(qs) == 0 {
		return nil, nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := len(qs)
	degradedOK := se.degradedOK.Load()
	rss := make([]*routerScratch, n)
	for j := range rss {
		rss[j] = se.getScratch()
		rss[j].ctx = ctx
		rss[j].st = QueryStats{}
		rss[j].degradedOK = degradedOK
	}
	defer func() {
		for _, rs := range rss {
			se.putScratch(rs)
		}
	}()

	results := make([][]int, n)
	remainings := make([][]candState, n)
	if err := batchFan(n, func(j int) error {
		var err error
		results[j], remainings[j], err = se.phase12(ctx, rss[j], qs[j], k, nil, nil)
		return err
	}); err != nil {
		return nil, nil, err
	}

	// Assemble the coalesced refinement over (shard, local unit) ids.
	t2 := time.Now()
	items := make([]multistep.BatchQuery, n)
	pageIDs := make(map[int32][]int)         // unit → local ids to decode
	onPage := make(map[int32]map[int32]bool) // dedup guard for pageIDs
	for j := range qs {
		var seeds, pending []multistep.GroupCandidate
		for _, c := range remainings[j] {
			if c.exactPt != nil {
				seeds = append(seeds, multistep.GroupCandidate{ID: c.id, Group: -1, LBSq: c.lbSq})
				continue
			}
			s := se.owner[c.id]
			if rss[j].failed[s] {
				continue // neutralized candidate of a failed shard
			}
			lid := int(se.local[c.id])
			page, err := se.units[s].PF.PageOf(lid)
			if err != nil {
				return nil, nil, err
			}
			u := se.unitBase[s] + int32(page)
			pending = append(pending, multistep.GroupCandidate{ID: c.id, Group: u, LBSq: c.lbSq})
			seen := onPage[u]
			if seen == nil {
				seen = make(map[int32]bool)
				onPage[u] = seen
			}
			if !seen[c.id] {
				seen[c.id] = true
				pageIDs[u] = append(pageIDs[u], lid)
			}
		}
		items[j] = multistep.BatchQuery{
			Q: qs[j], Seeds: seeds, Pending: pending,
			K: k - rss[j].st.TrueHits, OwnOnly: true,
		}
	}

	// failBatchShard marks shard s failed for every query of the batch: a
	// unit read serves all demanders, so its failure degrades all of them.
	failBatchShard := func(s int) {
		se.units[s].fetchFailures.Add(1)
		se.units[s].quarantined.Store(true)
		for _, rs := range rss {
			rs.failed[s] = true
		}
	}
	fetch := func(unit int32, item int) ([]int32, [][]float32, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		s := se.shardOfUnit(unit)
		if rss[item].failed[s] {
			return nil, nil, fmt.Errorf("core: shard %d failed: %w", s, multistep.ErrSkipCandidate)
		}
		e := rss[item].engs[s]
		lids := pageIDs[unit]
		pts := make([][]float32, len(lids))
		if err := e.pf.FetchOnPageCtx(ctx, int(unit-se.unitBase[s]), lids, pts); err != nil {
			if degradedOK && disk.IsPermanent(err) {
				failBatchShard(s)
				return nil, nil, fmt.Errorf("core: shard %d failed (%v): %w", s, err, multistep.ErrSkipCandidate)
			}
			return nil, nil, &ShardError{Shard: s, Err: err}
		}
		rs := rss[item]
		rs.st.Fetched += len(lids)
		rs.st.PageReads += int64(se.pagesPer)
		rs.shardSt[s].Fetched += len(lids)
		rs.shardSt[s].PageReads += int64(se.pagesPer)
		if e.cfg.Policy == cache.LRU {
			for i, lid := range lids {
				e.admitLRU(lid, pts[i], rs.codes)
			}
		}
		gids := se.units[s].GlobalIDs
		out := make([]int32, len(lids))
		for i, lid := range lids {
			out[i] = gids[lid]
		}
		return out, pts, nil
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
		rs := rss[j]
		rs.st.RefineTime = share
		rs.st.SimulatedIO = time.Duration(rs.st.PageReads) * se.tio
		for s := range se.units {
			if rs.failed[s] {
				rs.st.Degraded = true
				rs.st.FailedShards = append(rs.st.FailedShards, s)
			}
		}
		rs.account(qs[j], sink)
		sts[j] = rs.st
	}
	return results, sts, nil
}

// shardOfUnit inverts the unitBase offsets: the shard whose unit id range
// contains unit.
func (se *ShardedEngine) shardOfUnit(unit int32) int {
	// sort.Search over the N+1 fence array: first s with unitBase[s+1] > unit.
	return sort.Search(len(se.units), func(s int) bool { return se.unitBase[s+1] > unit })
}
