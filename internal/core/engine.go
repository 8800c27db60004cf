package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"exploitbit/internal/bounds"
	"exploitbit/internal/cache"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/encoding"
	"exploitbit/internal/histogram"
	"exploitbit/internal/rtree"
	"exploitbit/internal/vec"
)

// Config selects a caching method and its knobs.
type Config struct {
	Method Method
	// CacheBytes is the cache size CS.
	CacheBytes int64
	// Tau is the code length τ (bits per dimension). Ignored by NoCache and
	// Exact. Default 8. Use costmodel.OptimalTau to auto-tune (Section 4.2).
	Tau int
	// Policy is the replacement policy (default HFF; Figure 8).
	Policy cache.Policy
	// SmoothEps blends a sliver of the data distribution into F′ before
	// Algorithm 2 so buckets stay sane where the workload is silent
	// (default 0.01; 0 disables).
	SmoothEps float64
	// NoTrueHitDetection disables Algorithm 1's true-result detection
	// (Case ii), for the ablation bench.
	NoTrueHitDetection bool
	// EagerFetchMisses implements footnote 6: fetch cache misses from disk
	// immediately during candidate reduction so they tighten lb_k and ub_k.
	// The paper argues this rarely pays off; the ablation bench measures it.
	EagerFetchMisses bool

	// The three fields below are test seams, not options: they force the
	// reference paths the equivalence suites and kernel benchmarks compare
	// against. Production code leaves them zero.

	// lutMinCandidates gates the per-query ADC lookup table: the LUT costs
	// O(d·B) to build, so it is only built when |C(q)| reaches this many
	// candidates. 0 selects the gate (2·B, which amortizes the build);
	// negative disables the LUT entirely (reference bound path).
	lutMinCandidates int
	// parallelReduceThreshold fans Phase 2 across GOMAXPROCS-bounded workers
	// over contiguous candidate chunks when |C(q)| reaches it. 0 selects the
	// gate (defaultParallelReduceThreshold); negative keeps reduction
	// single-threaded.
	parallelReduceThreshold int
	// noSlab keeps approximate HFF content in the map-backed Cache instead of
	// the slab-packed arena: the reference layout of the slab-vs-map
	// equivalence tests and benchmarks (results are bit-identical either way).
	noSlab bool
}

// strSortDims is mHC-R's R-tree tiling depth.
const strSortDims = 2

// defaultParallelReduceThreshold is the |C(q)| above which goroutine fan-out
// beats a single-core scan of the candidate states.
const defaultParallelReduceThreshold = 4096

func (c Config) withDefaults() Config {
	if c.Tau < 1 {
		c.Tau = 8
	}
	if c.SmoothEps < 0 {
		c.SmoothEps = 0
	}
	return c
}

// Engine executes Algorithm 1 over one dataset, point file, candidate index
// and cache configuration.
type Engine struct {
	// pipeline carries the candidate generator, the configuration and the
	// query pipeline; Engine plugs in as its flat scorer (score … settle).
	pipeline

	ds *dataset.Dataset
	pf *disk.PointFile

	// Approximate-point machinery (HC-*, iHC-*, C-VA). HFF content lives in
	// the slab-packed arena (slab); the map-backed cache (approx) serves the
	// LRU policy and the eager-fetch ablation, and is the equivalence suite's
	// reference layout. Exactly one of the two is non-nil for an
	// approximate-point method; see slabLayout.
	codec  encoding.Codec
	table  *bounds.Table
	approx *cache.Cache[[]uint64]
	slab   *cache.Slab
	ghist  *histogram.Histogram
	phist  *histogram.PerDim

	// EXACT baseline.
	exact *cache.Cache[[]float32]

	// mHC-R.
	md      *histogram.MD
	mdCache *cache.Cache[int32]

	// Table 3 bookkeeping.
	histSpaceBytes int
	histBuildTime  time.Duration

	// globalIDs maps this engine's local ids back to dataset-global ids.
	// Nil for an unsharded engine (identity); set on shard engines, whose
	// ds/pf/cache all live in a compacted local id space while the shared
	// mHC-R histogram is indexed by global id.
	globalIDs []int32

	// lutBuckets is the LUT row stride (max bucket count of the active
	// table), cached for the per-query build-vs-scan gate.
	lutBuckets int

	// ubTopPool pools the per-worker running-threshold heaps of the parallel
	// slab kernel (serial reduction uses the scratch's heap instead).
	ubTopPool sync.Pool

	agg atomicAggregate
}

// NewEngine builds an engine: it selects HFF cache content from the profile,
// constructs the method's histogram, and encodes the cached points.
func NewEngine(pf *disk.PointFile, prof *Profile, cands CandidateFunc, cfg Config) (*Engine, error) {
	e, content, capacity, err := newModel(prof, cfg)
	if err != nil {
		return nil, err
	}
	e.pf = pf
	e.fillCache(content, capacity)
	e.finalize(cands)
	return e, nil
}

// newModel runs the offline model construction of NewEngine — method
// validation, histogram build, bounds table, codec — and selects the HFF
// cache content and item capacity, without touching a point file or filling
// a cache. The sharded constructor builds the model once over the full
// profile and shares it by pointer across every shard engine, so all shards
// quantize and bound candidates through identical structures.
func newModel(prof *Profile, cfg Config) (e *Engine, content []int, capacity int, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.Method.Validate(); err != nil {
		return nil, nil, 0, err
	}
	ds := prof.DS
	e = &Engine{ds: ds}
	e.cfg = cfg
	dom := ds.Domain

	switch cfg.Method {
	case NoCache:
		// Nothing to build.

	case Exact:
		itemBits := 32 * ds.Dim
		capacity = cache.CapacityForBudget(cfg.CacheBytes, itemBits)
		content = prof.HFFContent(capacity)

	case MHCR:
		numLeaves := 1 << cfg.Tau
		if numLeaves > ds.Len() {
			numLeaves = ds.Len()
		}
		start := time.Now()
		rt := rtree.BuildSTR(ds, numLeaves, strSortDims)
		lo, hi := rt.MBRs()
		md, err := histogram.NewMD(lo, hi, rt.Assignment(ds.Len()))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: building mHC-R: %w", err)
		}
		e.histBuildTime = time.Since(start)
		e.md = md
		e.histSpaceBytes = md.SpaceBytes()
		capacity = cache.CapacityForBudget(cfg.CacheBytes, md.CodeLen())
		content = prof.HFFContent(capacity)

	case CVA:
		// Fit the whole dataset: largest τ whose total footprint fits the
		// budget; fall back to τ=1 with partial coverage if even that is
		// too large.
		tau := 0
		for t := 16; t >= 1; t-- {
			total := int64(ds.Len()) * int64(encoding.NewCodec(ds.Dim, t).ItemBits()) / 8
			if total <= cfg.CacheBytes {
				tau = t
				break
			}
		}
		partial := tau == 0
		if partial {
			tau = 1
		}
		e.cfg.Tau = tau // record the budget-derived τ
		e.codec = encoding.NewCodec(ds.Dim, tau)
		b := histogram.MaxBucketsForCodeLen(tau, dom.Ndom)
		start := time.Now()
		freqs := histogram.DataFrequencyPerDim(ds, ds.Dim, dom)
		e.phist = histogram.BuildPerDim(freqs, b, func(f []float64, b int) *histogram.Histogram {
			return histogram.EquiDepth(f, b)
		})
		e.histBuildTime = time.Since(start)
		e.histSpaceBytes = e.phist.SpaceBytes()
		e.table = bounds.NewTablePerDim(e.phist, dom)
		capacity = ds.Len()
		if partial {
			capacity = cache.CapacityForBudget(cfg.CacheBytes, e.codec.ItemBits())
		}
		content = prof.HFFContent(capacity)
		if !partial {
			content = allIDs(ds.Len())
		}

	default:
		// The HC-* and iHC-* family.
		e.codec = encoding.NewCodec(ds.Dim, cfg.Tau)
		capacity = cache.CapacityForBudget(cfg.CacheBytes, e.codec.ItemBits())
		content = prof.HFFContent(capacity)
		b := histogram.MaxBucketsForCodeLen(cfg.Tau, dom.Ndom)

		start := time.Now()
		switch cfg.Method {
		case HCW:
			e.ghist = histogram.EquiWidth(dom.Ndom, b)
		case HCD:
			e.ghist = histogram.EquiDepth(histogram.DataFrequency(ds, dom), b)
		case HCV:
			e.ghist = histogram.VOptimal(histogram.DataFrequency(ds, dom), b)
		case HCO:
			fp := histogram.WorkloadFrequency(prof.QRPoints(CachedSet(content)), dom)
			histogram.Smooth(fp, histogram.DataFrequency(ds, dom), cfg.SmoothEps)
			e.ghist = histogram.KNNOptimal(fp, b)
		case IHCW:
			freqs := make([][]float64, ds.Dim)
			for j := range freqs {
				freqs[j] = make([]float64, dom.Ndom)
			}
			e.phist = histogram.BuildPerDim(freqs, b, histogram.EquiWidthBuilder)
		case IHCD:
			e.phist = histogram.BuildPerDim(histogram.DataFrequencyPerDim(ds, ds.Dim, dom), b,
				func(f []float64, b int) *histogram.Histogram { return histogram.EquiDepth(f, b) })
		case IHCO:
			fps := histogram.WorkloadFrequencyPerDim(prof.QRPoints(CachedSet(content)), ds.Dim, dom)
			base := histogram.DataFrequencyPerDim(ds, ds.Dim, dom)
			for j := range fps {
				histogram.Smooth(fps[j], base[j], cfg.SmoothEps)
			}
			e.phist = histogram.BuildPerDim(fps, b,
				func(f []float64, b int) *histogram.Histogram { return histogram.KNNOptimal(f, b) })
		}
		e.histBuildTime = time.Since(start)

		if e.ghist != nil {
			e.histSpaceBytes = e.ghist.SpaceBytes()
			e.table = bounds.NewTable(e.ghist, dom, ds.Dim)
		} else {
			e.histSpaceBytes = e.phist.SpaceBytes()
			e.table = bounds.NewTablePerDim(e.phist, dom)
		}
	}
	return e, content, capacity, nil
}

// fillCache populates the method's cache with content (ids in e.ds's id
// space), admitting at most capacity items. Content arrives in the global
// HFF rank order; shard engines pass the shard-local slice of that ranking,
// so the union over all shards equals the unsharded cache content exactly.
func (e *Engine) fillCache(content []int, capacity int) {
	cfg := e.cfg
	switch {
	case cfg.Method == NoCache:

	case cfg.Method == Exact:
		e.exact = cache.New[[]float32](capacity, cfg.Policy)
		if cfg.Policy == cache.HFF {
			e.exact.FillHFF(content, func(id int) []float32 {
				return append([]float32(nil), e.ds.Point(id)...)
			})
		}

	case e.md != nil:
		e.mdCache = cache.New[int32](capacity, cfg.Policy)
		if cfg.Policy == cache.HFF {
			e.mdCache.FillHFF(content, func(id int) int32 {
				return int32(e.md.BucketOf(e.globalID(id)))
			})
		}

	case cfg.slabLayout():
		e.slab = cache.BuildSlab(e.ds.Len(), e.codec.Words(), capacity, content, e.slabFiller())

	default:
		e.approx = cache.New[[]uint64](capacity, cfg.Policy)
		if cfg.Policy == cache.HFF || cfg.Method == CVA {
			// C-VA warm-starts even LRU with the profile's ranking.
			e.approx.FillHFF(content, e.pointEncoder())
		}
	}
}

// slabLayout reports whether an approximate-point method keeps its codes in
// the immutable slab arena — the production layout, scanned by the fused
// blocked kernel. The mutable map cache serves what the arena cannot: LRU
// replacement, and the footnote-6 eager-fetch ablation, whose Phase 2 is
// serial and per-candidate anyway.
func (c Config) slabLayout() bool {
	return c.Policy == cache.HFF && !c.EagerFetchMisses && !c.noSlab
}

// finalize installs the derived fast-path state, plugs the engine into its
// pipeline as the flat scorer over cands, and arms the scratch pools. Every
// construction path — NewEngine and the shard engines — ends here.
func (e *Engine) finalize(cands CandidateFunc) {
	if e.table != nil {
		e.lutBuckets = e.table.Buckets()
	}
	e.via, e.cands = e, cands
	e.horizon, e.pagesPer, e.tio = int32(e.ds.Len()), e.pf.PagesPerPoint(), e.pf.Tio()
	e.scratch.New = func() any { return newSearchScratch(&e.pipeline, e.ds.Dim) }
	e.ubTopPool.New = func() any { return vec.NewTopK(1) }
}

// globalID maps a local id back to its dataset-global id (identity when
// unsharded).
func (e *Engine) globalID(id int) int {
	if e.globalIDs != nil {
		return int(e.globalIDs[id])
	}
	return id
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// pointEncoder returns a sequential-use encoder for FillHFF that reuses one
// codes scratch across calls — the offline build encodes up to the whole
// dataset, so a per-point allocation is pure garbage-collector churn.
func (e *Engine) pointEncoder() func(id int) []uint64 {
	codes := make([]int, e.ds.Dim)
	return func(id int) []uint64 {
		return e.encodeVector(e.ds.Point(id), codes, nil)
	}
}

// slabFiller is pointEncoder's slab counterpart: it encodes a point straight
// into its arena window, so the whole HFF content packs with zero per-point
// allocations.
func (e *Engine) slabFiller() func(id int, dst []uint64) {
	codes := make([]int, e.ds.Dim)
	return func(id int, dst []uint64) {
		e.encodeVector(e.ds.Point(id), codes, dst)
	}
}

// encodeVector quantizes p through the histogram(s) into codes (scratch,
// len Dim) and packs it into dst (nil allocates).
func (e *Engine) encodeVector(p []float32, codes []int, dst []uint64) []uint64 {
	dom := e.ds.Domain
	for j, v := range p {
		bin := dom.Bin(float64(v))
		if e.ghist != nil {
			codes[j] = e.ghist.Bucket(bin)
		} else {
			codes[j] = e.phist.H[j].Bucket(bin)
		}
	}
	return e.codec.Encode(codes, dst)
}

// HistogramSpaceBytes reports the histogram footprint (Table 3).
func (e *Engine) HistogramSpaceBytes() int { return e.histSpaceBytes }

// HistogramBuildTime reports the histogram construction time (Table 3).
func (e *Engine) HistogramBuildTime() time.Duration { return e.histBuildTime }

// CacheCapacity returns the item capacity of the active cache.
func (e *Engine) CacheCapacity() int {
	switch {
	case e.slab != nil:
		return e.slab.Capacity()
	case e.approx != nil:
		return e.approx.Capacity()
	case e.exact != nil:
		return e.exact.Capacity()
	case e.mdCache != nil:
		return e.mdCache.Capacity()
	}
	return 0
}

// CacheLen returns the number of cached items.
func (e *Engine) CacheLen() int {
	switch {
	case e.slab != nil:
		return e.slab.Len()
	case e.approx != nil:
		return e.approx.Len()
	case e.exact != nil:
		return e.exact.Len()
	case e.mdCache != nil:
		return e.mdCache.Len()
	}
	return 0
}

// DiskStats snapshots the backing point file's device counters, including
// the fault-handling activity (retries, transient/permanent errors).
func (e *Engine) DiskStats() disk.Stats { return e.pf.Stats() }

// Aggregate returns the accumulated statistics since the last Reset.
func (e *Engine) Aggregate() Aggregate { return e.agg.Load() }

// ResetStats clears accumulated statistics.
func (e *Engine) ResetStats() { e.agg.Reset() }

// Search runs Algorithm 1 and returns the identifiers of the k nearest
// candidates of q (the paper returns identifiers, not vectors) plus the
// query statistics.
//
// Search is safe for concurrent use: the HFF cache is immutable after
// construction, the LRU cache locks internally, disk counters are atomic,
// and all per-query scratch comes from a pool. Reported per-phase timings
// are CPU time of this goroutine's query only.
func (e *Engine) Search(q []float32, k int) ([]int, QueryStats, error) {
	return e.SearchCtx(context.Background(), q, k, nil, nil)
}

// SearchInto is Search appending result identifiers to dst (pass dst[:0] to
// reuse a buffer across queries). With a reused dst, the steady-state
// cache-hit path performs zero heap allocations.
func (e *Engine) SearchInto(q []float32, k int, dst []int) ([]int, QueryStats, error) {
	return e.SearchCtx(context.Background(), q, k, dst, nil)
}

// SearchCtx is the full-signature search: SearchInto under a request
// context, with an optional live-ingest overlay (see pipeline.search).
func (e *Engine) SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *Merge) ([]int, QueryStats, error) {
	return e.search(ctx, q, k, dst, mg, nil)
}

// score is the flat scorer: Phase 2 over the engine's own cache, in place on
// the query's candidate states.
func (e *Engine) score(sc *searchScratch, q []float32, ids []int, k int) error {
	return e.reduce(sc, q, ids, sc.cs[:len(ids)], len(ids), k, nil)
}

// reduce scores ids (in this engine's id space) into cs on scratch sc — the
// one Phase-2 dispatch both scorers go through. The ADC lookup table replaces
// per-candidate edge math when gate candidates amortize its build (gate is
// the query's whole candidate count, so a shard engine makes the choice the
// unsharded engine would); above the parallel threshold the scan fans out
// over contiguous chunks. xb is the scatter-gather bound-exchange cell (nil
// when scoring in place).
func (e *Engine) reduce(sc *searchScratch, q []float32, ids []int, cs []candState, gate, k int, xb *crossBound) error {
	lut := e.queryLUT(q, gate, sc)
	sc.st.UsedLUT = lut != nil
	workers := e.reduceWorkers(len(ids))
	sc.st.ReduceWorkers = workers
	if e.slab != nil {
		// Fused blocked kernel straight off the slab arena; blocks are the
		// unit of parallelism above the threshold.
		return e.reduceSlab(sc.ctx, q, ids, cs, lut, k, workers, sc, xb)
	}
	return e.reduceMap(q, ids, cs, lut, workers, sc)
}

// locate: the flat scorer reads every candidate from its own point file.
func (e *Engine) locate(_ *searchScratch, id int) (readLoc, error) {
	return readLoc{eng: e, local: id}, nil
}

// admit feeds a successfully read point to the LRU admission path.
func (e *Engine) admit(sc *searchScratch, loc readLoc, p []float32, err error) ([]float32, error) {
	if err == nil && e.cfg.Policy == cache.LRU {
		e.admitLRU(loc.local, p, sc.codes)
	}
	return p, err
}

// readPage is the batch counterpart of Phase 3's point read: every point of
// ids, all resident on page, in one read.
func (e *Engine) readPage(sc *searchScratch, page int, ids []int, pts [][]float32) error {
	if err := e.pf.FetchOnPageCtx(sc.ctx, page, ids, pts); err != nil {
		return err
	}
	if e.cfg.Policy == cache.LRU {
		for i, id := range ids {
			e.admitLRU(id, pts[i], sc.codes)
		}
	}
	return nil
}

func (e *Engine) fetchUnit(_ *searchScratch, id int32) (int32, bool, error) {
	page, err := e.pf.PageOf(int(id))
	return int32(page), true, err
}

func (e *Engine) readUnit(batch []*searchScratch, item int, unit int32, ids []int32, pts [][]float32) error {
	lids := make([]int, len(ids))
	for i, id := range ids {
		lids[i] = int(id)
	}
	return e.readPage(batch[item], int(unit), lids, pts)
}

func (e *Engine) settle(sc *searchScratch, _ []float32, _ shardSink) { e.agg.Add(sc.st) }

// queryLUT builds (or skips) the per-query ADC lookup table. Building costs
// O(d·B); it pays off once the candidate set is a small multiple of B, so
// small queries keep the direct bound path.
func (e *Engine) queryLUT(q []float32, n int, sc *searchScratch) *bounds.QueryLUT {
	if (e.approx == nil && e.slab == nil) || e.table == nil {
		return nil
	}
	th := e.cfg.lutMinCandidates
	if th < 0 {
		return nil
	}
	if th == 0 {
		th = 2 * e.lutBuckets
	}
	if n < th {
		return nil
	}
	sc.lut = e.table.BuildLUT(q, sc.lut)
	return sc.lut
}

// reduceWorkers decides Phase 2's fan-out. Eager fetching stays serial (it
// does disk I/O with error handling); otherwise candidate scoring is pure
// CPU over immutable state and parallelizes trivially.
func (e *Engine) reduceWorkers(n int) int {
	if e.cfg.EagerFetchMisses {
		return 1
	}
	th := e.cfg.parallelReduceThreshold
	if th < 0 {
		return 1
	}
	if th == 0 {
		th = defaultParallelReduceThreshold
	}
	if n < th {
		return 1
	}
	// Keep chunks big enough to amortize goroutine startup.
	minChunk := th / 8
	if minChunk < 1 {
		minChunk = 1
	}
	if minChunk > 512 {
		minChunk = 512
	}
	workers := min(runtime.GOMAXPROCS(0), (n+minChunk-1)/minChunk)
	if workers < 2 {
		return 1
	}
	return workers
}

// scoreCandidate fills c with the squared bounds candidate id derives from
// the map-backed caches and reports whether the cache hit. Misses keep the
// vacuous bounds (0, +Inf) of Algorithm 1 line 4.
func (e *Engine) scoreCandidate(q []float32, id int, c *candState, lut *bounds.QueryLUT) bool {
	c.id = int32(id)
	c.leaf = -1
	c.lbSq, c.ubSq = 0, math.Inf(1)
	c.exactPt = nil
	c.known = false
	switch {
	case e.approx != nil:
		if words, ok := e.approx.Get(id); ok {
			if lut != nil {
				c.lbSq, c.ubSq = lut.BoundsSqPacked(words, e.codec)
			} else {
				c.lbSq, c.ubSq = e.table.BoundsSqPacked(q, words, e.codec)
			}
			return true
		}
	case e.exact != nil:
		if p, ok := e.exact.Get(id); ok {
			d2 := vec.SqDist(q, p)
			c.lbSq, c.ubSq = d2, d2
			c.exactPt = p
			return true
		}
	case e.mdCache != nil:
		if b, ok := e.mdCache.Get(id); ok {
			lo, hi := e.md.Rect(int(b))
			c.lbSq, c.ubSq = bounds.RectSq(q, lo, hi)
			return true
		}
	}
	return false
}

// reduceMap is Phase 2 over the map-backed caches (everything but the slab
// layout): contiguous candidate chunks through one loop body, fanned out via
// scoreParallel above the parallel threshold and run inline below it. The
// caches are concurrency-safe (HFF immutable, LRU internally locked) and the
// LUT is read-only; workers touch disjoint cs slots, and the partially scored
// states of an abandoned request are discarded by the caller's error return.
func (e *Engine) reduceMap(q []float32, ids []int, cs []candState, lut *bounds.QueryLUT, workers int, sc *searchScratch) error {
	var hits int64
	if workers > 1 {
		hits = scoreParallel(len(ids), workers, func(lo, hi int) int64 {
			h, _ := e.mapReduceRange(q, ids, cs, lut, lo, hi, sc) // cancellation surfaces below
			return h
		})
	} else {
		var err error
		if hits, err = e.mapReduceRange(q, ids, cs, lut, 0, len(ids), sc); err != nil {
			return err
		}
	}
	if err := sc.ctx.Err(); err != nil {
		return err
	}
	sc.st.Hits += int(hits)
	return nil
}

// mapReduceRange scores candidates ids[lo:hi] into cs[lo:hi], polling the
// context every cancelCheckStride candidates so giant candidate sets cannot
// pin a worker past the client's deadline. Under the eager-fetch ablation a
// miss is read from disk on the spot; that path writes the query's scratch,
// which is safe because reduceWorkers keeps an eager reduction on one
// goroutine.
func (e *Engine) mapReduceRange(q []float32, ids []int, cs []candState, lut *bounds.QueryLUT, lo, hi int, sc *searchScratch) (int64, error) {
	var hits int64
	for i := lo; i < hi; i++ {
		if (i-lo)&(cancelCheckStride-1) == 0 {
			if err := sc.ctx.Err(); err != nil {
				return hits, err
			}
		}
		if e.scoreCandidate(q, ids[i], &cs[i], lut) {
			hits++
		} else if e.cfg.EagerFetchMisses {
			p, err := e.pf.FetchCtx(sc.ctx, ids[i], sc.fetchBuf)
			if err != nil {
				return hits, err
			}
			sc.st.Fetched++
			sc.st.PageReads += int64(e.pf.PagesPerPoint())
			d2 := vec.SqDist(q, p)
			cs[i].lbSq, cs[i].ubSq = d2, d2
			cs[i].exactPt = append([]float32(nil), p...)
		}
	}
	return hits, nil
}

// admitLRU inserts a freshly fetched point into a dynamic cache, quantizing
// through the caller's codes scratch.
func (e *Engine) admitLRU(id int, p []float32, codes []int) {
	switch {
	case e.approx != nil:
		e.approx.Put(id, e.encodeVector(p, codes, nil))
	case e.exact != nil:
		e.exact.Put(id, append([]float32(nil), p...))
	case e.mdCache != nil:
		e.mdCache.Put(id, int32(e.md.BucketOf(e.globalID(id))))
	}
}
