package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"exploitbit/internal/bounds"
	"exploitbit/internal/cache"
	"exploitbit/internal/dataset"
	"exploitbit/internal/encoding"
	"exploitbit/internal/histogram"
	"exploitbit/internal/leafstore"
	"exploitbit/internal/multistep"
	"exploitbit/internal/vec"
)

// LeafIndex is the in-memory part of a tree-based index (Section 3.6.1):
// the leaf partition (point ids per leaf) and, per query, a conservative
// lower bound on the distance to any point of each leaf. iDistance, VP-tree
// and the STR R-tree all satisfy it.
type LeafIndex interface {
	Leaves() [][]int32
	LeafLowerBounds(q []float32) []float64
}

// leafBoundsInto is the allocation-free variant of LeafLowerBounds: the
// bounds are written into dst (grown only when undersized) and returned.
// Indexes that implement it let the tree engine's steady state avoid a
// per-query bound-slice allocation.
type leafBoundsInto interface {
	LeafLowerBoundsInto(q []float32, dst []float64) []float64
}

// TreeConfig selects how leaf nodes are cached.
type TreeConfig struct {
	// Method: Exact caches raw leaf vectors; HCO (or any HC-*) caches
	// approximate representations of the leaf's points; NoCache disables
	// caching.
	Method Method
	// CacheBytes is the cache budget CS.
	CacheBytes int64
	// Tau is the code length for approximate leaf caching (default 8).
	Tau int
	// SmoothEps as in Config.
	SmoothEps float64

	// lutMinCachedPoints is a test seam, not an option: the gate of the
	// per-query ADC lookup table for HC-* leaf caches, mirroring
	// Config.lutMinCandidates. The LUT costs O(dim·B) per query, so it only
	// pays once enough approximate points are cached. 0 selects the gate
	// (2·B); negative disables the LUT. Unlike the flat engine the cached
	// population is fixed at build time, so the gate is decided once, not
	// per query.
	lutMinCachedPoints int
}

// exactLeaf is the payload of the EXACT leaf cache.
type exactLeaf struct {
	pts [][]float32 // same order as the leaf directory's ids
}

// TreeEngine runs cached kNN search over a tree index per Section 3.6.1:
// leaf nodes are visited in ascending lower-bound order; cached leaves are
// examined in RAM (exact distances, or per-point bounds that tighten ub_k
// and defer fetching), uncached leaves are loaded from disk.
//
// Search is built from the same reduction core as the flat Engine
// (reduce.go): squared-space bounds end to end, candState partitioning for
// pruning and true-hit detection, pooled per-query scratch, optional LUT
// scoring, and lock-free aggregates. Refinement is group-granular: loading
// one leaf resolves every resident candidate at once
// (multistep.SearchGroupsSq).
type TreeEngine struct {
	ds    *dataset.Dataset
	ix    LeafIndex
	store *leafstore.Store
	cfg   TreeConfig

	// leaves is ix.Leaves() hoisted once at construction: the directory is
	// immutable, and the hot loops index it per candidate.
	leaves [][]int32
	// ixInto is ix when it supports allocation-free leaf bounds.
	ixInto leafBoundsInto

	codec  encoding.Codec
	table  *bounds.Table
	ghist  *histogram.Histogram
	exactC *cache.Cache[exactLeaf]
	// leafSlab holds the HC-* approximate leaf cache: all cached leaves'
	// packed codes in one arena (directory order within each leaf), so scoring
	// a cached leaf is a single contiguous scan with no per-leaf allocation.
	leafSlab *cache.VarSlab
	buildLUT bool

	scratch sync.Pool
	agg     atomicAggregate
}

// NewTreeEngine builds the cached tree engine. Leaf access frequencies are
// collected by replaying the workload wl through uncached searches (the
// construction procedure of Section 3.6.1), and the HC-O histogram is built
// from the workload's k nearest neighbors.
func NewTreeEngine(ds *dataset.Dataset, ix LeafIndex, store *leafstore.Store, wl [][]float32, k int, cfg TreeConfig) (*TreeEngine, error) {
	if err := cfg.Method.Validate(); err != nil {
		return nil, err
	}
	switch cfg.Method {
	case NoCache, Exact, HCW, HCD, HCV, HCO:
	default:
		return nil, fmt.Errorf("core: tree caching does not support method %s", cfg.Method)
	}
	if cfg.Tau < 1 {
		cfg.Tau = 8
	}
	if cfg.SmoothEps == 0 {
		cfg.SmoothEps = 0.01
	}
	e := &TreeEngine{ds: ds, ix: ix, store: store, cfg: cfg, leaves: ix.Leaves()}
	e.ixInto, _ = ix.(leafBoundsInto)
	e.scratch.New = func() any { return newTreeScratch(e) }

	if cfg.Method == NoCache {
		return e, nil
	}

	// Replay the workload in memory: count leaf accesses (HFF frequency)
	// and collect each query's k nearest points (the QR multiset for HC-O).
	leafFreq := make(map[int]int)
	var qr [][]float32
	for _, q := range wl {
		visited, nn := e.replay(q, k)
		for _, li := range visited {
			leafFreq[li]++
		}
		qr = append(qr, nn...)
	}
	ranked := cache.RankByFrequency(leafFreq)

	cachedPts := 0
	switch cfg.Method {
	case Exact:
		// Capacity in leaves: raw vectors, budget split by average leaf bits.
		itemBits := e.avgLeafBits(32 * ds.Dim)
		capacity := cache.CapacityForBudget(cfg.CacheBytes, itemBits)
		e.exactC = cache.New[exactLeaf](capacity, cache.HFF)
		e.exactC.FillHFF(ranked, func(li int) exactLeaf {
			ids := e.leaves[li]
			pts := make([][]float32, len(ids))
			for i, id := range ids {
				pts[i] = ds.Point(int(id))
			}
			cachedPts += len(ids)
			return exactLeaf{pts: pts}
		})
	default: // HC-* approximate leaf caching
		dom := ds.Domain
		b := histogram.MaxBucketsForCodeLen(cfg.Tau, dom.Ndom)
		switch cfg.Method {
		case HCW:
			e.ghist = histogram.EquiWidth(dom.Ndom, b)
		case HCD:
			e.ghist = histogram.EquiDepth(histogram.DataFrequency(ds, dom), b)
		case HCV:
			e.ghist = histogram.VOptimal(histogram.DataFrequency(ds, dom), b)
		case HCO:
			fp := histogram.WorkloadFrequency(qr, dom)
			histogram.Smooth(fp, histogram.DataFrequency(ds, dom), cfg.SmoothEps)
			e.ghist = histogram.KNNOptimal(fp, b)
		}
		e.codec = encoding.NewCodec(ds.Dim, cfg.Tau)
		e.table = bounds.NewTable(e.ghist, dom, ds.Dim)
		itemBits := e.avgLeafBits(e.codec.ItemBits()) // per-point packed bits
		capacity := cache.CapacityForBudget(cfg.CacheBytes, itemBits)
		codes := make([]int, ds.Dim)
		e.leafSlab = cache.BuildVarSlab(len(e.leaves), capacity, ranked,
			func(li int) int { return len(e.leaves[li]) * e.codec.Words() },
			func(li int, dst []uint64) {
				ids := e.leaves[li]
				for i, id := range ids {
					p := ds.Point(int(id))
					for j, v := range p {
						codes[j] = e.ghist.Bucket(dom.Bin(float64(v)))
					}
					e.codec.Encode(codes, dst[i*e.codec.Words():(i+1)*e.codec.Words()])
				}
				cachedPts += len(ids)
			})
		th := cfg.lutMinCachedPoints
		if th == 0 {
			th = 2 * e.table.Buckets()
		}
		e.buildLUT = th > 0 && cachedPts >= th
	}
	return e, nil
}

// avgLeafBits estimates the cache cost of one leaf at perPointBits.
func (e *TreeEngine) avgLeafBits(perPointBits int) int {
	if len(e.leaves) == 0 {
		return perPointBits
	}
	total := 0
	for _, l := range e.leaves {
		total += len(l)
	}
	avg := (total*perPointBits + len(e.leaves) - 1) / len(e.leaves)
	if avg < 1 {
		avg = 1
	}
	return avg
}

// replay performs an in-memory exact search, returning the visited leaves
// and the k nearest points (used only during construction).
func (e *TreeEngine) replay(q []float32, k int) (visited []int, nn [][]float32) {
	lbs := e.ix.LeafLowerBounds(q)
	order := argsortByValue(lbs)
	top := vec.NewTopK(k)
	for _, li := range order {
		if top.Full() && lbs[li] >= top.Root() {
			break
		}
		visited = append(visited, li)
		for _, id := range e.leaves[li] {
			top.Push(vec.Dist(q, e.ds.Point(int(id))), int(id))
		}
	}
	ids, _ := top.Results()
	for _, id := range ids {
		nn = append(nn, e.ds.Point(id))
	}
	return visited, nn
}

func argsortByValue(v []float64) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.Sort(&leafSorter{key: v, idx: order})
	return order
}

// leafSorter orders leaf indices by (bound, index) through sort.Interface, so
// the per-query sort reuses a pooled struct instead of allocating the
// closures of sort.Slice.
type leafSorter struct {
	key []float64
	idx []int
}

func (s *leafSorter) Len() int { return len(s.idx) }
func (s *leafSorter) Less(a, b int) bool {
	ka, kb := s.key[s.idx[a]], s.key[s.idx[b]]
	if ka != kb {
		return ka < kb
	}
	return s.idx[a] < s.idx[b]
}
func (s *leafSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// Aggregate returns accumulated statistics.
func (e *TreeEngine) Aggregate() Aggregate { return e.agg.Load() }

// ResetStats clears accumulated statistics.
func (e *TreeEngine) ResetStats() { e.agg.Reset() }

// treeScratch is the pooled per-query working set of the tree search. Like
// the flat engine's searchScratch it embeds the shared reduceScratch, so the
// all-cached steady state performs zero heap allocations.
type treeScratch struct {
	eng *TreeEngine
	st  QueryStats
	ctx context.Context // request context of the query in flight
	q   []float32

	reduceScratch

	nodeLB     []float64 // squared per-leaf lower bounds
	sorter     leafSorter
	ubTop      *vec.TopK
	lut        *bounds.QueryLUT
	ptLB, ptUB []float64 // per-point squared bounds of one cached leaf

	seeds, pend []multistep.GroupCandidate
	skip        map[int32]bool
	msc         multistep.Scratch
	rbuf        []multistep.Result
	sqd         []float64 // squared distances of one loaded leaf

	// fetch is the Phase 3 group fetch, bound once per scratch so per-query
	// calls do not allocate a closure.
	fetch multistep.GroupFetch
}

func newTreeScratch(e *TreeEngine) *treeScratch {
	sc := &treeScratch{
		eng:           e,
		reduceScratch: newReduceScratch(),
		skip:          make(map[int32]bool),
	}
	sc.fetch = sc.loadGroup
	return sc
}

func (e *TreeEngine) getScratch() *treeScratch {
	return e.scratch.Get().(*treeScratch)
}

func (e *TreeEngine) putScratch(sc *treeScratch) {
	sc.q = nil
	sc.ctx = nil // do not retain request-scoped values past the query
	e.scratch.Put(sc)
}

// loadLeaf loads one leaf from the store, charging its points and pages to
// the query. Pages are charged per loaded leaf (not by differencing the
// store's device counter), so concurrent searches account their own I/O.
func (e *TreeEngine) loadLeaf(li int, st *QueryStats) ([]int32, [][]float32, error) {
	ids, pts, err := e.store.Load(li)
	if err != nil {
		return nil, nil, err
	}
	st.Fetched += len(ids)
	st.PageReads += int64(e.store.LeafPages(li))
	return ids, pts, nil
}

// loadGroup is the refinement fetch: loading one leaf yields the exact
// squared distance of every resident point.
func (sc *treeScratch) loadGroup(group int32) ([]int32, []float64, error) {
	// Every group load is leaf-sized disk I/O: an abandoned request stops
	// paying for it here, mid-refinement.
	if err := sc.ctx.Err(); err != nil {
		return nil, nil, err
	}
	ids, pts, err := sc.eng.loadLeaf(int(group), &sc.st)
	if err != nil {
		return nil, nil, err
	}
	sc.sqd = grow(sc.sqd, len(pts))
	for i, p := range pts {
		sc.sqd[i] = vec.SqDist(sc.q, p)
	}
	return ids, sc.sqd, nil
}

// Search runs the cached tree kNN search of Section 3.6.1 and returns the
// identifiers of the exact k nearest points. Like Algorithm 1, approximate
// candidates whose upper bound beats the k-th lower bound are declared
// results without ever fetching their leaf — the identifiers are the answer,
// per Definition 3's remark.
func (e *TreeEngine) Search(q []float32, k int) ([]int, QueryStats, error) {
	return e.SearchCtx(context.Background(), q, k, nil)
}

// SearchInto is Search appending the result identifiers to dst (pass
// dst[:0] to reuse a buffer across queries; with every visited leaf cached
// the steady state then allocates nothing).
func (e *TreeEngine) SearchInto(q []float32, k int, dst []int) ([]int, QueryStats, error) {
	return e.SearchCtx(context.Background(), q, k, dst)
}

// phase12 runs Phase 1 (leaf visit order) and Phase 2 (cached-leaf scoring,
// uncached-leaf loads, lb_k/ub_k partition) for one query on scratch sc.
// True-hit identifiers are appended to dst; the surviving candidates are
// split into sc.seeds (exact distance in hand) and sc.pend (leaf-resident,
// to be refined).
func (e *TreeEngine) phase12(ctx context.Context, sc *treeScratch, q []float32, k int, dst []int) ([]int, error) {
	st := &sc.st

	// Phase 1: candidate generation order — per-leaf lower bounds, squared
	// in place (x ↦ x² is monotone, so the visit order, the node cutoff and
	// the bound clamp are unchanged while the per-point work below never
	// takes a square root).
	t0 := time.Now()
	var lbs []float64
	if e.ixInto != nil {
		sc.nodeLB = e.ixInto.LeafLowerBoundsInto(q, sc.nodeLB)
		lbs = sc.nodeLB
	} else {
		lbs = e.ix.LeafLowerBounds(q)
		sc.nodeLB = grow(sc.nodeLB, len(lbs))
	}
	for i := range lbs {
		sc.nodeLB[i] = lbs[i] * lbs[i]
	}
	sc.sorter.key = sc.nodeLB
	sc.sorter.idx = grow(sc.sorter.idx, len(sc.nodeLB))
	for i := range sc.sorter.idx {
		sc.sorter.idx[i] = i
	}
	sort.Sort(&sc.sorter)
	st.GenTime = time.Since(t0)

	// Phase 2: visit leaves in bound order, scoring cached ones in RAM and
	// loading the rest; then reduce with the shared lb_k/ub_k partition.
	t1 := time.Now()
	if sc.ubTop == nil {
		sc.ubTop = vec.NewTopK(k)
	} else {
		sc.ubTop.Reset(k)
	}
	ubTop := sc.ubTop
	var lut *bounds.QueryLUT
	if e.buildLUT {
		sc.lut = e.table.BuildLUT(q, sc.lut)
		lut = sc.lut
		st.UsedLUT = true
	}
	cs := sc.cs[:0]
	for _, li := range sc.sorter.idx {
		if ubTop.Full() && sc.nodeLB[li] >= ubTop.Root() {
			// No remaining leaf can contain one of the k nearest: stop
			// generating candidates.
			break
		}
		ids := e.leaves[li]
		st.Candidates += len(ids)
		examined := false
		if e.exactC != nil {
			if leafPts, ok := e.exactC.Get(li); ok {
				st.Hits += len(leafPts.pts)
				for i, id := range ids {
					d2 := vec.SqDist(q, leafPts.pts[i])
					cs = append(cs, candState{id: id, leaf: -1, lbSq: d2, ubSq: d2, known: true})
					ubTop.Push(d2, int(id))
				}
				examined = true
			}
		} else if e.leafSlab != nil {
			if words, ok := e.leafSlab.Lookup(li); ok {
				n := len(ids)
				st.Hits += n
				sc.ptLB = grow(sc.ptLB, n)
				sc.ptUB = grow(sc.ptUB, n)
				if lut != nil {
					lut.BoundsSqPackedRange(words, n, e.codec, sc.ptLB, sc.ptUB)
				} else {
					w := e.codec.Words()
					for i := 0; i < n; i++ {
						sc.ptLB[i], sc.ptUB[i] = e.table.BoundsSqPacked(q, words[i*w:(i+1)*w], e.codec)
					}
				}
				nodeLBSq := sc.nodeLB[li]
				for i, id := range ids {
					lbSq, ubSq := sc.ptLB[i], sc.ptUB[i]
					if lbSq < nodeLBSq {
						lbSq = nodeLBSq // node bound can be tighter
					}
					ubTop.Push(ubSq, int(id))
					cs = append(cs, candState{id: id, leaf: int32(li), lbSq: lbSq, ubSq: ubSq})
				}
				examined = true
			}
		}
		if !examined {
			// Uncached leaves cost disk I/O in Phase 2 (unlike the flat
			// engine, whose Phase 2 is pure CPU): check the context before
			// each load so an abandoned request stops paying immediately.
			if err := ctx.Err(); err != nil {
				sc.cs = cs
				return dst, err
			}
			lids, pts, err := e.loadLeaf(li, st)
			if err != nil {
				sc.cs = cs
				return dst, err
			}
			for i, id := range lids {
				d2 := vec.SqDist(q, pts[i])
				cs = append(cs, candState{id: id, leaf: -1, lbSq: d2, ubSq: d2, known: true})
				ubTop.Push(d2, int(id))
			}
		}
	}
	sc.cs = cs

	// Candidate reduction (Algorithm 1 lines 7–13) over known ∪ pending.
	lbkSq, ubkSq := sc.kthBoundsSq(cs, k)
	results, remaining := partitionCandidates(cs, lbkSq, ubkSq, false, st, dst)
	sc.seeds, sc.pend = sc.seeds[:0], sc.pend[:0]
	for _, c := range remaining {
		if c.known {
			sc.seeds = append(sc.seeds, multistep.GroupCandidate{ID: c.id, Group: -1, LBSq: c.lbSq})
		} else {
			sc.pend = append(sc.pend, multistep.GroupCandidate{ID: c.id, Group: c.leaf, LBSq: c.lbSq})
		}
	}
	st.Remaining = len(sc.pend)
	st.ReduceTime = time.Since(t1)
	return results, nil
}

// SearchCtx is the full-signature search: SearchInto under a request context.
// A canceled or expired ctx abandons the query at the next check point —
// before each uncached leaf load in Phase 2, before refinement starts, and
// before every group load — returning ctx.Err() (possibly wrapped).
func (e *TreeEngine) SearchCtx(ctx context.Context, q []float32, k int, dst []int) ([]int, QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.ctx = ctx
	sc.st = QueryStats{}
	sc.q = q
	st := &sc.st

	base := len(dst)
	results, err := e.phase12(ctx, sc, q, k, dst)
	if err != nil {
		return results, *st, err
	}

	// Refinement: known candidates compete for the open slots at no cost;
	// pending ones are resolved in ascending lower-bound order, loading a
	// leaf at most once and consuming all its exact distances (the
	// node-level tightening of Section 3.6.1). An abandoned request is
	// dropped here, before the first refinement load.
	if err := ctx.Err(); err != nil {
		return dst, *st, err
	}
	t2 := time.Now()
	kNeed := k - st.TrueHits
	if kNeed > 0 {
		clear(sc.skip)
		for _, id := range results[base:] {
			sc.skip[int32(id)] = true
		}
		rbuf, _, err := sc.msc.SearchGroupsSq(sc.seeds, sc.pend, kNeed, sc.skip, sc.fetch, sc.rbuf[:0])
		sc.rbuf = rbuf
		if err != nil {
			return dst, *st, err
		}
		for _, r := range rbuf {
			results = append(results, r.ID)
		}
	}
	st.RefineTime = time.Since(t2)
	st.SimulatedIO = time.Duration(st.PageReads) * e.store.Tio()

	e.agg.Add(*st)
	return results, *st, nil
}
