// Package core is the paper's primary contribution: the three-phase kNN
// search of Algorithm 1 (candidate generation → cache-based candidate
// reduction → multi-step refinement) over a histogram cache of compact
// approximate points, together with the offline construction pipeline
// (workload profiling, HFF content selection, F′ extraction, histogram
// building) and the leaf-node adaptation for tree-based indexes of
// Section 3.6.1.
package core

import (
	"math"
	"sync/atomic"
	"time"
)

// QueryStats records one query's execution, in the vocabulary of Section 2.2.
type QueryStats struct {
	Candidates int // |C(q)| from Phase 1
	Hits       int // cache hits during reduction (ρ_hit numerator)
	Pruned     int // candidates removed by early pruning (lb > ub_k)
	TrueHits   int // candidates detected as results without I/O (ub < lb_k)
	Remaining  int // C_refine: candidates entering Phase 3
	Fetched    int // points actually fetched by multi-step refinement

	// RefineWaits counts the device waits refinement served one after another
	// (× one read's latency ≈ the time Phase 3 spent waiting). Reads taken one
	// at a time wait once each, RefineWaits == Fetched; under an open window
	// (multistep.SearchSq) a read the query blocks on counts only if it was
	// issued after the previous counted wait ended. Single-query searches of
	// the flat engine and the router report it, per query, not per shard.
	RefineWaits int

	PageReads   int64         // physical page reads charged during Phase 3
	SimulatedIO time.Duration // PageReads × Tio

	GenTime    time.Duration // Phase 1 CPU
	ReduceTime time.Duration // Phase 2 CPU (never any I/O)
	RefineTime time.Duration // Phase 3 CPU (excluding SimulatedIO)

	Dmax float64 // index's distance guarantee for this query (c·R·w for C2LSH)

	UsedLUT       bool // Phase 2 went through the per-query ADC lookup table
	ReduceWorkers int  // goroutines used by Phase 2 (1 = serial)

	// Degraded marks a sharded query answered without one or more shards
	// (permanent storage failure under degraded-mode serving); FailedShards
	// lists them. A degraded result is correct over the surviving shards but
	// may miss true neighbors owned by the failed ones.
	Degraded     bool
	FailedShards []int
}

// RhoHit is this query's observed cache-hit ratio — the live counterpart of
// the cost model's ρ_hit (Theorem 1). Zero-candidate queries report 0.
func (s QueryStats) RhoHit() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Candidates)
}

// RhoRefine is this query's observed refinement ratio — candidates that
// survived Phase 2 into refinement, the live counterpart of the model's
// ρ_refine bound (Theorems 2–3). Zero-candidate queries report 0.
func (s QueryStats) RhoRefine() float64 {
	if s.Candidates == 0 {
		return 0
	}
	return float64(s.Remaining) / float64(s.Candidates)
}

// ResponseTime is the modeled wall-clock of the query: measured CPU plus
// simulated I/O latency.
func (s QueryStats) ResponseTime() time.Duration {
	return s.GenTime + s.ReduceTime + s.RefineTime + s.SimulatedIO
}

// RefinementTime is the paper's T_refine: everything after candidate
// generation that involves the candidate fetch path.
func (s QueryStats) RefinementTime() time.Duration {
	return s.ReduceTime + s.RefineTime + s.SimulatedIO
}

// Aggregate accumulates per-query statistics across a test query set.
type Aggregate struct {
	Queries     int
	Candidates  int64
	Hits        int64
	Pruned      int64
	TrueHits    int64
	Remaining   int64
	Fetched     int64
	RefineWaits int64
	PageReads   int64
	SimulatedIO time.Duration
	GenTime     time.Duration
	ReduceTime  time.Duration
	RefineTime  time.Duration

	LUTQueries      int64 // queries whose Phase 2 used the ADC lookup table
	ParallelQueries int64 // queries whose Phase 2 fanned out over workers
	DegradedQueries int64 // queries answered without one or more failed shards

	// EwmaRhoHit / EwmaRhoRefine are exponentially weighted moving averages
	// of the per-query observed ρ_hit and ρ_refine (ratioEWMAAlpha), so the
	// drift watchdog and /metrics see where the ratios are *now* rather than
	// a since-startup mean that old traffic anchors forever. Zero until the
	// first query with candidates lands.
	EwmaRhoHit    float64
	EwmaRhoRefine float64
}

// ratioEWMAAlpha weights the per-query ratio EWMAs: the most recent ~20
// queries dominate, which tracks a shifting hot set within a drift window
// without jittering on a single unlucky query.
const ratioEWMAAlpha = 0.05

// ewmaFold advances an EWMA that uses "exactly 0" as its unseeded state (a
// genuine first sample of 0 seeds to 0, which is the same value).
func ewmaFold(prev, x float64) float64 {
	if prev == 0 {
		return x
	}
	return prev + ratioEWMAAlpha*(x-prev)
}

// Add folds one query's stats into the aggregate.
func (a *Aggregate) Add(s QueryStats) {
	a.Queries++
	a.Candidates += int64(s.Candidates)
	a.Hits += int64(s.Hits)
	a.Pruned += int64(s.Pruned)
	a.TrueHits += int64(s.TrueHits)
	a.Remaining += int64(s.Remaining)
	a.Fetched += int64(s.Fetched)
	a.RefineWaits += int64(s.RefineWaits)
	a.PageReads += s.PageReads
	a.SimulatedIO += s.SimulatedIO
	a.GenTime += s.GenTime
	a.ReduceTime += s.ReduceTime
	a.RefineTime += s.RefineTime
	if s.UsedLUT {
		a.LUTQueries++
	}
	if s.ReduceWorkers > 1 {
		a.ParallelQueries++
	}
	if s.Degraded {
		a.DegradedQueries++
	}
	if s.Candidates > 0 {
		a.EwmaRhoHit = ewmaFold(a.EwmaRhoHit, s.RhoHit())
		a.EwmaRhoRefine = ewmaFold(a.EwmaRhoRefine, s.RhoRefine())
	}
}

// atomicAggregate accumulates Aggregate counters with lock-free atomics, so
// concurrent searches never serialize on a stats mutex just to record their
// telemetry. Load takes each counter independently; under concurrent
// writers the snapshot may mix counters from in-flight queries, which is
// harmless for the ratios and averages Aggregate reports.
type atomicAggregate struct {
	queries, candidates, hits, pruned, trueHits, remaining, fetched, refineWaits,
	pageReads, simulatedIO, genTime, reduceTime, refineTime,
	lutQueries, parallelQueries, degradedQueries atomic.Int64

	// ewmaRhoHit / ewmaRhoRefine hold math.Float64bits of the ratio EWMAs
	// (0 = unseeded), folded with a CAS loop. Under concurrent writers the
	// fold order is scheduler-dependent, which perturbs only the smoothing —
	// acceptable for telemetry, and deterministic for serial replays.
	ewmaRhoHit, ewmaRhoRefine atomic.Uint64
}

// foldRatio CAS-advances one packed EWMA cell.
func foldRatio(cell *atomic.Uint64, x float64) {
	for {
		old := cell.Load()
		var next float64
		if old == 0 {
			next = x
		} else {
			prev := math.Float64frombits(old)
			next = prev + ratioEWMAAlpha*(x-prev)
		}
		if cell.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Add folds one query's stats into the aggregate without locking.
func (a *atomicAggregate) Add(s QueryStats) {
	a.queries.Add(1)
	a.candidates.Add(int64(s.Candidates))
	a.hits.Add(int64(s.Hits))
	a.pruned.Add(int64(s.Pruned))
	a.trueHits.Add(int64(s.TrueHits))
	a.remaining.Add(int64(s.Remaining))
	a.fetched.Add(int64(s.Fetched))
	a.refineWaits.Add(int64(s.RefineWaits))
	a.pageReads.Add(s.PageReads)
	a.simulatedIO.Add(int64(s.SimulatedIO))
	a.genTime.Add(int64(s.GenTime))
	a.reduceTime.Add(int64(s.ReduceTime))
	a.refineTime.Add(int64(s.RefineTime))
	if s.UsedLUT {
		a.lutQueries.Add(1)
	}
	if s.ReduceWorkers > 1 {
		a.parallelQueries.Add(1)
	}
	if s.Degraded {
		a.degradedQueries.Add(1)
	}
	if s.Candidates > 0 {
		foldRatio(&a.ewmaRhoHit, s.RhoHit())
		foldRatio(&a.ewmaRhoRefine, s.RhoRefine())
	}
}

// Load snapshots the counters into the exported Aggregate form.
func (a *atomicAggregate) Load() Aggregate {
	return Aggregate{
		Queries:         int(a.queries.Load()),
		Candidates:      a.candidates.Load(),
		Hits:            a.hits.Load(),
		Pruned:          a.pruned.Load(),
		TrueHits:        a.trueHits.Load(),
		Remaining:       a.remaining.Load(),
		Fetched:         a.fetched.Load(),
		RefineWaits:     a.refineWaits.Load(),
		PageReads:       a.pageReads.Load(),
		SimulatedIO:     time.Duration(a.simulatedIO.Load()),
		GenTime:         time.Duration(a.genTime.Load()),
		ReduceTime:      time.Duration(a.reduceTime.Load()),
		RefineTime:      time.Duration(a.refineTime.Load()),
		LUTQueries:      a.lutQueries.Load(),
		ParallelQueries: a.parallelQueries.Load(),
		DegradedQueries: a.degradedQueries.Load(),
		EwmaRhoHit:      math.Float64frombits(a.ewmaRhoHit.Load()),
		EwmaRhoRefine:   math.Float64frombits(a.ewmaRhoRefine.Load()),
	}
}

// Reset zeroes every counter.
func (a *atomicAggregate) Reset() {
	a.queries.Store(0)
	a.candidates.Store(0)
	a.hits.Store(0)
	a.pruned.Store(0)
	a.trueHits.Store(0)
	a.remaining.Store(0)
	a.fetched.Store(0)
	a.refineWaits.Store(0)
	a.pageReads.Store(0)
	a.simulatedIO.Store(0)
	a.genTime.Store(0)
	a.reduceTime.Store(0)
	a.refineTime.Store(0)
	a.lutQueries.Store(0)
	a.parallelQueries.Store(0)
	a.degradedQueries.Store(0)
	a.ewmaRhoHit.Store(0)
	a.ewmaRhoRefine.Store(0)
}

func (a Aggregate) per(v int64) float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(v) / float64(a.Queries)
}

// AvgCandidates returns the mean |C(q)|.
func (a Aggregate) AvgCandidates() float64 { return a.per(a.Candidates) }

// AvgRemaining returns the mean C_refine (the paper's key cost driver).
func (a Aggregate) AvgRemaining() float64 { return a.per(a.Remaining) }

// AvgIO returns the mean refinement I/O in fetched points per query.
func (a Aggregate) AvgIO() float64 { return a.per(a.Fetched) }

// AvgPageReads returns the mean physical page reads per query.
func (a Aggregate) AvgPageReads() float64 { return a.per(a.PageReads) }

// HitRatio returns ρ_hit over the whole run.
func (a Aggregate) HitRatio() float64 {
	if a.Candidates == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Candidates)
}

// PruneRatio returns ρ_prune: pruned or detected candidates per cache hit
// (Eqn 1's "ratio of pruned candidates to cache hits").
func (a Aggregate) PruneRatio() float64 {
	if a.Hits == 0 {
		return 0
	}
	return float64(a.Pruned+a.TrueHits) / float64(a.Hits)
}

// AvgResponse returns the mean modeled response time per query.
func (a Aggregate) AvgResponse() time.Duration {
	if a.Queries == 0 {
		return 0
	}
	return (a.GenTime + a.ReduceTime + a.RefineTime + a.SimulatedIO) / time.Duration(a.Queries)
}

// AvgRefinement returns the mean T_refine per query.
func (a Aggregate) AvgRefinement() time.Duration {
	if a.Queries == 0 {
		return 0
	}
	return (a.ReduceTime + a.RefineTime + a.SimulatedIO) / time.Duration(a.Queries)
}

// AvgGeneration returns the mean T_gen per query.
func (a Aggregate) AvgGeneration() time.Duration {
	if a.Queries == 0 {
		return 0
	}
	return a.GenTime / time.Duration(a.Queries)
}
