// Sharded scatter-gather execution of Algorithm 1. The dataset is split
// into N shard units (internal/shard decides membership); each unit owns a
// full Engine over its local id space — its own point file, candidate
// filter and cache — while the quantization model (histogram, bounds table,
// codec) is built once over the global profile and shared by pointer, and
// each HFF cache holds exactly the shard-local slice of the global HFF
// ranking. The router is the pipeline's scatter-gather scorer: it scatters
// the one Phase-1 candidate list to the owning shards, scores every engaged
// shard through that shard engine's flat kernels with the running k-th upper
// bound exchanged through a crossBound cell, and gathers the per-shard bound
// states back into the global candidate order, where the pipeline runs one
// global lb_k/ub_k selection, partition and Seidl–Kriegel refinement whose
// fetches are routed back to the owning shard's file. The bit-identity
// argument with the flat scorer sits on the scorer seam (pipeline.go).
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
	// pipeline carries the global candidate generator, the configuration and
	// the query pipeline; the router plugs in as its scatter-gather scorer.
	pipeline

	owner []int32 // global id → shard
	local []int32 // global id → local id
	units []*shardUnit

	// unitBase[s] offsets shard s's local PageOf values into one global
	// fetch-unit id space for batch coalescing; unitBase[N] caps the range.
	unitBase []int32

	// degradedOK allows queries to complete over surviving shards when a
	// shard's storage fails permanently (results flagged Degraded). Off, a
	// failed shard fails every query that touches it.
	degradedOK atomic.Bool

	agg *atomicAggregate
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
// construction path (NewShardedEngine, refold) starts here and then
// installs one engine per unit.
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
		owner:    owner,
		local:    local,
		unitBase: make([]int32, len(specs)+1),
		agg:      new(atomicAggregate),
	}
	se.via, se.cands = se, cands
	se.horizon, se.pagesPer, se.tio = int32(total), specs[0].PF.PagesPerPoint(), specs[0].PF.Tio()
	for s, spec := range specs {
		se.units = append(se.units, &shardUnit{ShardSpec: spec, agg: new(atomicAggregate)})
		maxPage, err := spec.PF.PageOf(spec.DS.Len() - 1)
		if err != nil {
			return nil, err
		}
		se.unitBase[s+1] = se.unitBase[s] + int32(maxPage) + 1
	}
	se.scratch.New = func() any {
		sc := newSearchScratch(&se.pipeline, se.Dim())
		sc.scatter = newScatterState(len(specs))
		return sc
	}
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
			codec:          model.codec,
			table:          model.table,
			ghist:          model.ghist,
			phist:          model.phist,
			md:             model.md,
			histSpaceBytes: model.histSpaceBytes,
			histBuildTime:  model.histBuildTime,
			globalIDs:      spec.GlobalIDs,
		}
		e.cfg = model.cfg
		capS := len(localContent[s])
		if model.cfg.Policy == cache.LRU {
			capS = lruCaps[s]
		}
		e.fillCache(localContent[s], capS)
		e.finalize(se.ShardCandidates(s))
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
	return func(dst []int, q []float32, k int) ([]int, float64) {
		ids, dmax := se.cands(dst, q, k)
		out := ids[:0] // filtered in place: the write never overtakes the read
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

// scatterState is the scatter-gather scorer's per-query state, hung off the
// pooled searchScratch: the per-shard scatter lists, the per-query engine
// snapshot, the per-shard statistics and the degraded-mode flags.
type scatterState struct {
	sids    [][]int      // per-shard local candidate ids
	pos     [][]int32    // per-shard original candidate positions
	engs    []*Engine    // per-query RCU snapshot of every shard engine
	shardSt []QueryStats // per-shard slice of this query's statistics
	errs    []error      // per-shard scoring errors
	xb      crossBound

	// Degraded-mode state, snapshotted per query at scatter time: quar is
	// each shard's quarantine flag, failed marks shards this query is serving
	// around (quarantined shards it touched, plus shards that failed
	// permanently mid-query).
	degradedOK bool
	quar       []bool
	failed     []bool
}

func newScatterState(n int) *scatterState {
	return &scatterState{
		sids:    make([][]int, n),
		pos:     make([][]int32, n),
		engs:    make([]*Engine, n),
		shardSt: make([]QueryStats, n),
		errs:    make([]error, n),
		quar:    make([]bool, n),
		failed:  make([]bool, n),
	}
}

// failShard records a permanent storage failure on shard s: the queries of
// scs serve around it from here on (a batch passes every member — a unit read
// serves all demanders, so its failure degrades all of them), and the shard
// is quarantined so later queries skip it without touching the broken file
// until a rebuild clears the flag.
func (se *ShardedEngine) failShard(s int, scs ...*searchScratch) {
	u := se.units[s]
	u.fetchFailures.Add(1)
	u.quarantined.Store(true)
	for _, sc := range scs {
		sc.scatter.failed[s] = true
	}
}

// charge attributes one read of points points to shard s (the pipeline
// charges the query as a whole).
func (se *ShardedEngine) charge(sc *searchScratch, s int32, points int) {
	sst := &sc.scatter.shardSt[s]
	sst.Fetched += points
	sst.PageReads += int64(se.pagesPer)
}

// score is the scatter-gather scorer: scatter the candidate positions to
// their owning shards, score every engaged shard through its engine's flat
// Phase 2 with the running k-th upper bound exchanged across shards, and
// gather the states back into the global candidate order — the same values
// in the same order as the flat scorer leaves behind.
func (se *ShardedEngine) score(sc *searchScratch, q []float32, ids []int, k int) error {
	x, st := sc.scatter, &sc.st
	x.degradedOK = se.degradedOK.Load()
	for s, u := range se.units {
		x.engs[s] = u.eng.Load() // one RCU snapshot per query per shard
		x.sids[s] = x.sids[s][:0]
		x.pos[s] = x.pos[s][:0]
		x.shardSt[s] = QueryStats{}
		x.errs[s] = nil
		x.quar[s] = u.quarantined.Load()
		x.failed[s] = false
	}
	engaged := 0
	inf := math.Inf(1)
	for i, g := range ids {
		s := se.owner[g]
		if x.quar[s] {
			// Quarantined owner: refuse the query unless degraded serving is
			// on; under it, neutralize the candidate slot in place (+Inf
			// bounds prune it or route it to the skip path; the scratch is
			// pooled, so a stale slot would hold a previous query's state)
			// and flag the shard as served-around.
			if !x.degradedOK {
				return &ShardError{Shard: int(s), Err: ErrShardQuarantined}
			}
			x.failed[s] = true
			sc.cs[i] = candState{id: int32(g), leaf: -1, lbSq: inf, ubSq: inf}
			continue
		}
		if len(x.sids[s]) == 0 {
			engaged++
		}
		x.sids[s] = append(x.sids[s], int(se.local[g]))
		x.pos[s] = append(x.pos[s], int32(i))
	}
	x.xb.reset()

	fan := engaged > 1 && len(ids) >= shardFanThreshold
	if fan {
		var wg sync.WaitGroup
		for s := range se.units {
			if len(x.sids[s]) == 0 {
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				x.errs[s] = se.scoreShard(sc, s, q, len(ids), k)
			}(s)
		}
		wg.Wait()
	} else {
		for s := range se.units {
			if len(x.sids[s]) > 0 {
				x.errs[s] = se.scoreShard(sc, s, q, len(ids), k)
			}
		}
	}

	// ReduceWorkers reports the goroutines that scored: concurrent shards add
	// up, shards scored one after another on the caller do not.
	workers := 0
	for s, err := range x.errs {
		if err != nil {
			if !x.degradedOK || !disk.IsPermanent(err) {
				return &ShardError{Shard: s, Err: err}
			}
			// The shard's storage died mid-scoring (eager-fetch path): fail
			// it, neutralize its candidate slots, and serve on.
			se.failShard(s, sc)
			for _, p := range x.pos[s] {
				sc.cs[p] = candState{id: int32(ids[p]), leaf: -1, lbSq: inf, ubSq: inf}
			}
			x.shardSt[s] = QueryStats{}
			continue
		}
		sst := &x.shardSt[s]
		st.Hits += sst.Hits
		st.Fetched += sst.Fetched // eager-fetch ablation path
		st.PageReads += sst.PageReads
		st.UsedLUT = st.UsedLUT || sst.UsedLUT
		if fan {
			workers += sst.ReduceWorkers
		} else {
			workers = max(workers, sst.ReduceWorkers)
		}
	}
	st.ReduceWorkers = max(workers, 1)
	return nil
}

// scoreShard runs shard s's share of Phase 2 on a scratch borrowed from the
// shard engine, then gathers each scored state back to its original global
// position, translating the id to global space. gate is the global candidate
// count the LUT gate sees.
func (se *ShardedEngine) scoreShard(sc *searchScratch, s int, q []float32, gate, k int) error {
	x := sc.scatter
	e := x.engs[s]
	ssc := e.getScratch(sc.ctx)
	defer e.putScratch(ssc)
	sids, pos := x.sids[s], x.pos[s]
	ssc.cs = grow(ssc.cs, len(sids))
	if err := e.reduce(ssc, q, sids, ssc.cs, gate, k, &x.xb); err != nil {
		return err
	}
	gids := se.units[s].GlobalIDs
	for i := range sids {
		c := ssc.cs[i]
		c.id = gids[c.id]
		sc.cs[pos[i]] = c
	}
	ssc.st.Candidates = len(sids)
	x.shardSt[s] = ssc.st
	return nil
}

// locate routes a Phase-3 read to the owning shard's file. A candidate owned
// by a failed shard is dropped from the schedule (degraded mode).
func (se *ShardedEngine) locate(sc *searchScratch, id int) (readLoc, error) {
	x := sc.scatter
	s := se.owner[id]
	if x.failed[s] {
		return readLoc{}, fmt.Errorf("core: shard %d failed: %w", s, multistep.ErrSkipCandidate)
	}
	return readLoc{eng: x.engs[s], local: int(se.local[id]), shard: s}, nil
}

// admit settles a read against its shard: a read that fails permanently
// fails the shard, and a read that was already in flight when its shard
// failed is dropped uncharged whatever it returned — the serial schedule
// would not have issued it, so only the device's own counters ever saw it.
func (se *ShardedEngine) admit(sc *searchScratch, loc readLoc, p []float32, err error) ([]float32, error) {
	x, s := sc.scatter, loc.shard
	if x.failed[s] {
		return nil, fmt.Errorf("core: shard %d failed: %w", s, multistep.ErrSkipCandidate)
	}
	if p, err = loc.eng.admit(sc, loc, p, err); err != nil {
		if x.degradedOK && disk.IsPermanent(err) {
			se.failShard(int(s), sc)
			return nil, fmt.Errorf("core: shard %d failed (%v): %w", s, err, multistep.ErrSkipCandidate)
		}
		return nil, &ShardError{Shard: int(s), Err: err}
	}
	se.charge(sc, s, 1)
	return p, nil
}

// fetchUnit maps a candidate to its (shard, local page) fetch unit. Because
// the partitioner is fetch-unit granular, those units biject with the
// unsharded file's pages.
func (se *ShardedEngine) fetchUnit(sc *searchScratch, id int32) (int32, bool, error) {
	s := se.owner[id]
	if sc.scatter.failed[s] {
		return 0, false, nil // neutralized candidate of a failed shard
	}
	page, err := se.units[s].PF.PageOf(int(se.local[id]))
	return se.unitBase[s] + int32(page), true, err
}

func (se *ShardedEngine) readUnit(batch []*searchScratch, item int, unit int32, ids []int32, pts [][]float32) error {
	sc := batch[item]
	x := sc.scatter
	s := se.shardOfUnit(unit)
	if x.failed[s] {
		return fmt.Errorf("core: shard %d failed: %w", s, multistep.ErrSkipCandidate)
	}
	lids := make([]int, len(ids))
	for i, g := range ids {
		lids[i] = int(se.local[g])
	}
	if err := x.engs[s].readPage(sc, int(unit-se.unitBase[s]), lids, pts); err != nil {
		if x.degradedOK && disk.IsPermanent(err) {
			se.failShard(s, batch...)
			return fmt.Errorf("core: shard %d failed (%v): %w", s, err, multistep.ErrSkipCandidate)
		}
		return &ShardError{Shard: s, Err: err}
	}
	se.charge(sc, int32(s), len(ids))
	return nil
}

// shardOfUnit inverts the unitBase offsets: the shard whose unit id range
// contains unit.
func (se *ShardedEngine) shardOfUnit(unit int32) int {
	// sort.Search over the N+1 fence array: first s with unitBase[s+1] > unit.
	return sort.Search(len(se.units), func(s int) bool { return se.unitBase[s+1] > unit })
}

// settle flags a degraded query, attributes the partition to the shards, and
// folds the query into the router's, the engaged units' and their serving
// engines' aggregates before handing the statistics to sink. The per-shard
// TrueHits and Remaining are counted off the partition's outcome and Pruned is
// what is left of the shard's scattered candidates; only base candidates
// attribute — overlay extras carry ids beyond the owner map.
func (se *ShardedEngine) settle(sc *searchScratch, q []float32, sink shardSink) {
	x, st := sc.scatter, &sc.st
	for s := range se.units {
		if x.failed[s] {
			st.Degraded = true
			st.FailedShards = append(st.FailedShards, s)
		}
	}
	for _, id := range sc.trueHits {
		if id < len(se.owner) {
			x.shardSt[se.owner[id]].TrueHits++
		}
	}
	for i := range sc.remaining {
		if id := int(sc.remaining[i].id); id < len(se.owner) {
			x.shardSt[se.owner[id]].Remaining++
		}
	}
	se.agg.Add(*st)
	for s, u := range se.units {
		if sst := &x.shardSt[s]; sst.Candidates > 0 || sst.Fetched > 0 {
			sst.Pruned = sst.Candidates - sst.TrueHits - sst.Remaining
			sst.SimulatedIO = time.Duration(sst.PageReads) * se.tio
			u.agg.Add(*sst)
			x.engs[s].agg.Add(*sst)
		}
	}
	if sink != nil {
		sink(q, st, x.shardSt)
	}
}

// Search runs the scatter-gather Algorithm 1; see Engine.Search.
func (se *ShardedEngine) Search(q []float32, k int) ([]int, QueryStats, error) {
	return se.search(context.Background(), q, k, nil, nil, nil)
}

// SearchInto is Search appending result identifiers to dst.
func (se *ShardedEngine) SearchInto(q []float32, k int, dst []int) ([]int, QueryStats, error) {
	return se.search(context.Background(), q, k, dst, nil, nil)
}

// SearchCtx is the full-signature sharded search: SearchInto under a request
// context with the optional live-ingest overlay (see Merge). Results are
// bit-identical to Engine.SearchCtx.
func (se *ShardedEngine) SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *Merge) ([]int, QueryStats, error) {
	return se.search(ctx, q, k, dst, mg, nil)
}

// SearchBatch is Engine.SearchBatch scatter-gathered across shards:
// per-query Phase 1+2 through the router, then the one cross-query coalesced
// refinement over (shard, local unit) fetch units, so per-query PageReads
// match the unsharded batch exactly, under the same overlay mg.
func (se *ShardedEngine) SearchBatch(ctx context.Context, qs [][]float32, k int, mg *Merge) ([][]int, []QueryStats, error) {
	return se.searchBatch(ctx, qs, k, mg, nil)
}
