// Package multistep implements optimal multi-step kNN refinement
// (Seidl–Kriegel, SIGMOD 1998; generalized with upper bounds by Kriegel et
// al., SSTD 2007) — Phase 3 of the paper's Algorithm 1 and the procedure
// sketched in its Section 2.3 / Figure 4.
//
// Given candidates with conservative lower/upper distance bounds, it fetches
// exact points in ascending lower-bound order and stops as soon as the
// current k-th exact distance is below every unfetched lower bound. That
// fetch schedule is optimal: no correct algorithm restricted to the same
// bounds can fetch fewer candidates.
//
// The schedule is optimal in reads, not in waiting: taken literally it waits
// for one read before it asks for the next. SearchSq therefore keeps a window
// of reads in flight, under an issue rule that generalises the optimal stop.
// With candidates in ascending lower bound, the next candidate c may be
// issued while
//
//	(reads issued but not yet consumed) + (known exact distances ≤ c.LB) < k
//
// and results are consumed — skipped, failed on, or pushed into the top-k —
// strictly in lower-bound order. The serial schedule reads c exactly when,
// with every earlier candidate consumed, fewer than k known distances are
// ≤ c.LB. That count never falls and each consumed read raises it by at most
// one (vec.TopK.CountLE), so counting every in-flight read as one that will
// land at or below c.LB bounds the count the serial schedule will see from
// above: a read the rule issues is a read the serial schedule performs
// whatever the reads ahead of it return. With nothing in flight the rule is
// the optimal stop itself, so a window of depth 1 is the serial algorithm, and
// at every depth the candidates read, their order, the fetch count and the
// results are the serial schedule's.
package multistep

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"exploitbit/internal/vec"
)

// ErrSkipCandidate is a sentinel a Fetch/GroupFetch/BatchFetch implementation
// returns (possibly wrapped) to drop the demanded candidate or unit from the
// schedule without aborting the query — the degraded-mode plumbing: a sharded
// engine serving around a quarantined shard resolves that shard's candidates
// to this error instead of failing the whole search. A skipped fetch is not
// counted as refinement I/O. Any other fetch error still aborts: silently
// continuing past an unclassified failure would surface partial results as
// complete ones.
var ErrSkipCandidate = errors.New("multistep: skip candidate")

// Candidate is a refinement candidate: a point identifier with the distance
// bounds known so far. Uncached candidates carry LB=0, UB=+Inf (Algorithm 1
// line 4).
type Candidate struct {
	ID     int
	LB, UB float64
}

// Fetch retrieves the exact vector of a point (typically disk.PointFile's
// Fetch bound to a reusable buffer); every call is one unit of refinement
// I/O.
type Fetch func(id int) ([]float32, error)

// Reads is Fetch taken apart so that reads can overlap: SearchSq starts the
// read of a candidate with Issue and collects it with Await, keeping up to
// Depth reads issued and not yet awaited. Both are called on the searching
// goroutine, Await in the order of Issue, so an implementation needs no
// synchronisation beyond the read itself. Slots are numbered [0, Depth); the
// vector Await returns only has to stay valid until its slot is issued again.
// When SearchSq returns an error, reads issued and not yet awaited are the
// implementation's to finish.
type Reads interface {
	// Depth is the largest window the reader supports (capped at MaxDepth);
	// 1 waits for every read before the next is issued.
	Depth() int
	// Issue starts the read of candidate id into slot without waiting for it.
	Issue(slot, id int)
	// Await returns what Fetch would have returned for id, the read issued
	// into slot.
	Await(slot, id int) ([]float32, error)
}

// A Fetch is a Reads of depth 1: the read happens when it is awaited.
func (f Fetch) Depth() int                         { return 1 }
func (f Fetch) Issue(slot, id int)                 {}
func (f Fetch) Await(_, id int) ([]float32, error) { return f(id) }

// MaxDepth caps the refinement window. The issue rule limits itself to k
// reads in flight, but k is the client's. 16 is where the rule settles on
// its own at k = 10: replayed over the flat_io benchmark log (12.73 reads per
// query, serial p95 75 sequential waits) the uncapped rule waits 2.78 times
// per query (p95 8), a cap of 8 waits 2.98 times (p95 10), a cap of 4 waits
// 4.25 times (p95 19).
const MaxDepth = 16

// Result is one refined neighbor.
type Result struct {
	ID   int
	Dist float64
}

// Search refines cands to the k nearest of q, returning them in ascending
// distance order along with the number of Fetch calls performed.
//
// Candidates already known to be true results (Algorithm 1's early
// detection) must NOT be passed here; reduce k instead.
func Search(q []float32, cands []Candidate, k int, fetch Fetch) ([]Result, int, error) {
	if k < 1 {
		return nil, 0, nil
	}
	order := make([]Candidate, len(cands))
	copy(order, cands)
	sort.Slice(order, func(i, j int) bool { return order[i].LB < order[j].LB })

	top := vec.NewTopK(k)
	fetched := 0
	for _, c := range order {
		// Optimal stop: every remaining candidate has LB >= this one's, so
		// none can improve the current k-th distance.
		if top.Full() && c.LB >= top.Root() {
			break
		}
		p, err := fetch(c.ID)
		if err != nil {
			if errors.Is(err, ErrSkipCandidate) {
				continue
			}
			return nil, fetched, fmt.Errorf("multistep: fetching candidate %d: %w", c.ID, err)
		}
		fetched++
		top.Push(vec.Dist(q, p), c.ID)
	}
	ids, dists := top.Results()
	out := make([]Result, len(ids))
	for i := range ids {
		out[i] = Result{ID: ids[i], Dist: dists[i]}
	}
	return out, fetched, nil
}

// Scratch holds the reusable state of SearchSq so that a pooled scratch
// makes repeated refinement calls allocation-free. The zero value is ready
// to use.
type Scratch struct {
	order []Candidate
	top   *vec.TopK

	// SearchGroupsSq state (group.go).
	gorder []GroupCandidate
	loaded map[int32]bool
}

// SearchSq is Search operating entirely in squared-distance space: cands
// carry squared bounds (as produced by bounds.(*Table).BoundsSq* and the
// query LUT), exact distances are compared squared, and the square root is
// taken only for the k results actually returned. Because x ↦ x² is
// monotone on distances, the fetch order, the optimal stop and the selected
// results are identical to Search's.
//
// Reads go through r — a Fetch is one — with up to r.Depth() of them in
// flight under the issue rule of the package comment: at any depth, in any
// completion order, the candidates read, their order, the fetch count and the
// results are the serial schedule's, which is this loop at depth 1.
//
// Results are appended to dst (pass dst[:0] to reuse a buffer) in ascending
// distance order.
func (sc *Scratch) SearchSq(q []float32, cands []Candidate, k int, r Reads, dst []Result) ([]Result, int, error) {
	if k < 1 {
		return dst, 0, nil
	}
	if cap(sc.order) < len(cands) {
		sc.order = make([]Candidate, len(cands))
	}
	order := sc.order[:len(cands)]
	copy(order, cands)
	slices.SortFunc(order, func(a, b Candidate) int {
		switch {
		case a.LB < b.LB:
			return -1
		case a.LB > b.LB:
			return 1
		default:
			return 0
		}
	})

	if sc.top == nil {
		sc.top = vec.NewTopK(k)
	} else {
		sc.top.Reset(k)
	}
	top := sc.top
	depth := min(max(r.Depth(), 1), MaxDepth)
	fetched := 0
	// order[head:tail] is issued and not yet consumed; candidate i uses slot
	// i mod depth.
	head, tail := 0, 0
	for {
		for tail < len(order) && tail-head < depth && mayIssue(top, order[tail].LB, tail-head, k) {
			r.Issue(tail%depth, order[tail].ID)
			tail++
		}
		if head == tail {
			// Nothing in flight and nothing issued: the list is exhausted or
			// the optimal stop holds.
			break
		}
		c := order[head]
		p, err := r.Await(head%depth, c.ID)
		head++
		if err != nil {
			if errors.Is(err, ErrSkipCandidate) {
				continue
			}
			return dst, fetched, fmt.Errorf("multistep: fetching candidate %d: %w", c.ID, err)
		}
		fetched++
		top.Push(vec.SqDist(q, p), c.ID)
	}
	ids, sqDists := top.Drain()
	for i := range ids {
		dst = append(dst, Result{ID: ids[i], Dist: math.Sqrt(sqDists[i])})
	}
	return dst, fetched, nil
}

// mayIssue is the issue rule: the candidate with lower bound lb, next in
// ascending order, may be read while inflight reads are issued and not yet
// consumed. Its first test is the optimal stop — every remaining candidate
// has a lower bound ≥ lb, so none can improve the current k-th squared
// distance — and with nothing in flight it is the whole rule.
func mayIssue(top *vec.TopK, lb float64, inflight, k int) bool {
	if top.Full() && lb >= top.Root() {
		return false
	}
	return inflight == 0 || inflight+top.CountLE(lb) < k
}

// KthSmallest returns the k-th smallest value of xs (1-based), or +Inf when
// fewer than k values exist. Algorithm 1 uses it for lb_k and ub_k (lines
// 7–8); it is exported here because both the engine and the cost model need
// it.
func KthSmallest(xs []float64, k int) float64 {
	if k < 1 || len(xs) < k {
		return math.Inf(1)
	}
	return KthSmallestWith(xs, k, vec.NewTopK(k))
}

// KthSmallestWith is KthSmallest reusing a caller-provided heap (which it
// Resets), so the engine's pooled scratch computes lb_k/ub_k without
// allocating.
func KthSmallestWith(xs []float64, k int, top *vec.TopK) float64 {
	if k < 1 || len(xs) < k {
		return math.Inf(1)
	}
	top.Reset(k)
	for i, x := range xs {
		top.Push(x, i)
	}
	return top.Root()
}
