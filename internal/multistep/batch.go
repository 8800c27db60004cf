// Cross-query coalesced multi-step refinement: the Seidl–Kriegel schedule
// lifted to a batch of queries sharing one disk. Queries in a burst tend to
// have surviving candidates on overlapping data-file pages (qwLSH's
// observation for LSH workloads); refining them independently reads those
// pages once per query. SearchBatchSq instead drives every query's own
// optimal schedule against a shared unit cache: a fetch unit (a data page)
// is read from disk the first time any query's schedule demands it and
// served from memory for every later demand, so the batch's total
// refinement I/O is the union — not the sum — of the per-query fetch sets.
//
// Correctness: each query processes its own candidates in ascending
// (LBSq, ID) order under its own stop rule, and a unit is distributed to a
// query only when that query's cursor reaches one of its members — and then
// only the query's own Pending members: a page holds arbitrary points, and
// only this query's candidates carry bounds for it. Every query therefore
// pushes exactly the distances it would push when searched alone, in the
// same order, and terminates independently at the same point; only the
// number of physical reads changes. The global schedule fetches the unit
// whose best unprocessed member has the smallest (LBSq, ID) among all
// still-running queries, so a page is fetched exactly when its best member's
// lower bound beats some query's current k-th distance — per-query
// optimality is preserved, never weakened, by sharing.
package multistep

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"exploitbit/internal/vec"
)

// BatchQuery is one query of a coalesced refinement batch, carrying the
// survivors of its own Phase-2 reduction.
type BatchQuery struct {
	// Q is the query vector.
	Q []float32
	// Seeds are candidates whose exact squared distance is already known
	// (LBSq holds it; Group is ignored). They enter the selection before any
	// unit loads, at zero I/O cost.
	Seeds []GroupCandidate
	// Pending are candidates to be resolved by loading their fetch unit
	// (Group: the data-file page holding the point). Only these identifiers
	// of a loaded unit enter the query's selection.
	Pending []GroupCandidate
	// K is how many neighbors this query still needs (k minus true hits).
	K int
}

// BatchFetch reads one fetch unit from disk, returning the identifiers and
// exact vectors of the points it holds. item is the index of the BatchQuery
// whose schedule demanded the unit, so implementations can attribute the
// I/O to that query's statistics. The returned slices are retained for the
// rest of the batch — implementations must not reuse their backing arrays.
type BatchFetch func(unit int32, item int) (ids []int32, pts [][]float32, err error)

// batchItem is the per-query scheduler state of one SearchBatchSq call.
type batchItem struct {
	order     []GroupCandidate // own candidates, ascending (LBSq, ID)
	cur       int              // next unprocessed candidate in order
	top       *vec.TopK
	own       map[int32]bool // Pending ids
	processed map[int32]bool // units already distributed to this query
	done      bool
}

// peek advances the item past candidates whose unit it has already consumed
// and reports the next candidate demanding a unit, marking the item done at
// its optimal stop (selection full and no unprocessed lower bound can beat
// the k-th squared distance).
func (it *batchItem) peek() (GroupCandidate, bool) {
	for it.cur < len(it.order) && it.processed[it.order[it.cur].Group] {
		it.cur++
	}
	if it.cur >= len(it.order) {
		it.done = true
		return GroupCandidate{}, false
	}
	c := it.order[it.cur]
	if it.top.Full() && c.LBSq >= it.top.Root() {
		it.done = true
		return GroupCandidate{}, false
	}
	return c, true
}

// cachedUnit is one fetch unit held in memory for the duration of the batch.
// failed marks a unit the fetcher dropped with ErrSkipCandidate (degraded
// mode): every query that demands it skips it without distribution, and the
// failure is remembered so the unit is attempted only once per batch.
type cachedUnit struct {
	ids    []int32
	pts    [][]float32
	failed bool
}

// SearchBatchSq refines a batch of queries to their k nearest, reading each
// fetch unit at most once. It returns one ascending-distance result slice
// per query (square roots taken only here) and the number of unit loads.
// Each query's results are identical to what the single-query refinement
// would return for it alone; see the package comment for the argument.
func SearchBatchSq(items []BatchQuery, fetch BatchFetch) ([][]Result, int, error) {
	states := make([]batchItem, len(items))
	for j := range items {
		it := &states[j]
		q := &items[j]
		if q.K < 1 {
			it.done = true
			continue
		}
		it.top = vec.NewTopK(q.K)
		for _, s := range q.Seeds {
			it.top.Push(s.LBSq, int(s.ID))
		}
		it.order = make([]GroupCandidate, len(q.Pending))
		copy(it.order, q.Pending)
		slices.SortFunc(it.order, compareGroupCandidates)
		it.processed = make(map[int32]bool)
		it.own = make(map[int32]bool, len(q.Pending))
		for _, c := range q.Pending {
			it.own[c.ID] = true
		}
	}

	units := make(map[int32]*cachedUnit)
	loads := 0
	for {
		// Globally smallest (LBSq, ID) demand among still-running queries.
		best := -1
		var bestC GroupCandidate
		for j := range states {
			if states[j].done {
				continue
			}
			c, ok := states[j].peek()
			if !ok {
				continue
			}
			if best < 0 || compareGroupCandidates(c, bestC) < 0 {
				best, bestC = j, c
			}
		}
		if best < 0 {
			break
		}
		u := units[bestC.Group]
		if u == nil {
			ids, pts, err := fetch(bestC.Group, best)
			if err != nil {
				if errors.Is(err, ErrSkipCandidate) {
					units[bestC.Group] = &cachedUnit{failed: true}
					states[best].processed[bestC.Group] = true
					continue
				}
				return nil, loads, fmt.Errorf("multistep: loading unit %d: %w", bestC.Group, err)
			}
			u = &cachedUnit{ids: ids, pts: pts}
			units[bestC.Group] = u
			loads++
		}
		it := &states[best]
		it.processed[bestC.Group] = true
		if u.failed {
			continue
		}
		q := &items[best]
		for i, id := range u.ids {
			if !it.own[id] {
				continue
			}
			it.top.Push(vec.SqDist(q.Q, u.pts[i]), int(id))
		}
	}

	out := make([][]Result, len(items))
	for j := range states {
		if states[j].top == nil {
			continue
		}
		ids, sqDists := states[j].top.Drain()
		rs := make([]Result, len(ids))
		for i := range ids {
			rs[i] = Result{ID: ids[i], Dist: math.Sqrt(sqDists[i])}
		}
		out[j] = rs
	}
	return out, loads, nil
}
