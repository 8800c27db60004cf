package core

import (
	"math"
	"sort"

	"exploitbit/internal/cache"
	"exploitbit/internal/costmodel"
	"exploitbit/internal/dataset"
	"exploitbit/internal/vec"
)

// CandidateFunc is Phase 1: an index I reporting candidate identifiers for a
// query (Definition 4), plus the index's distance guarantee Dmax for the
// cost model (c·R·w for C2LSH, ub_k for VA-file filtering). The identifiers
// are appended to dst[:0] and are the caller's from then on, so a caller that
// hands the same buffer back query after query pays no allocation.
type CandidateFunc func(dst []int, q []float32, k int) (ids []int, dmax float64)

// Profile is the offline digest of a query workload WL against an index:
// everything cache construction and the cost model need, computed once and
// shared across all methods and parameter settings of an experiment.
type Profile struct {
	K  int         // the k the workload was profiled at
	WL [][]float32 // the workload queries
	DS *dataset.Dataset

	CandSets [][]int32   // per-workload-query candidate identifiers
	Freq     map[int]int // candidate frequency: freq(p) = |{q∈WL : p∈C(q)}|
	Ranked   []int       // point ids by descending frequency (HFF order)

	AvgCandSize float64
	AvgDmax     float64
}

// BuildProfile runs every workload query through the index and digests the
// results. This is the expensive, once-per-(dataset,index) step.
func BuildProfile(ds *dataset.Dataset, cands CandidateFunc, wl [][]float32, k int) *Profile {
	p := &Profile{K: k, WL: wl, DS: ds, Freq: make(map[int]int)}
	var sumCands, sumDmax float64
	var ids []int
	for _, q := range wl {
		var dmax float64
		ids, dmax = cands(ids, q, k)
		set := make([]int32, len(ids))
		for i, id := range ids {
			set[i] = int32(id)
			p.Freq[id]++
		}
		p.CandSets = append(p.CandSets, set)
		sumCands += float64(len(ids))
		sumDmax += dmax
	}
	if len(wl) > 0 {
		p.AvgCandSize = sumCands / float64(len(wl))
		p.AvgDmax = sumDmax / float64(len(wl))
	}
	p.Ranked = cache.RankByFrequency(p.Freq)
	return p
}

// CostInputs assembles the Section 4 cost model inputs for a cache budget
// from the profile and the geometry of the dataset it was taken over.
func (p *Profile) CostInputs(budget int64) costmodel.Inputs {
	return costmodel.Inputs{
		AvgCandSize: p.AvgCandSize,
		FreqSorted:  p.FreqSorted(),
		BudgetBytes: budget,
		Dim:         p.DS.Dim,
		DomainWidth: p.DS.Domain.Hi - p.DS.Domain.Lo,
		Ndom:        p.DS.Domain.Ndom,
		Dmax:        p.AvgDmax,
		Lvalue:      32,
	}
}

// FreqSorted returns the workload frequencies in descending order — the f_i
// sequence of Theorem 1's hit-ratio analysis.
func (p *Profile) FreqSorted() []int {
	out := make([]int, len(p.Ranked))
	for i, id := range p.Ranked {
		out[i] = p.Freq[id]
	}
	return out
}

// QRPoints materializes the multiset QR of Eqn 2 restricted to a cache
// content: for each workload query, its K nearest candidates among cached
// (the b^q_1..b^q_k whose upper bounds define ub_k). The offline build has
// the dataset in memory, so exact distances substitute for dist⁺ — the
// standard surrogate, exact up to the ε the histogram is being built to
// minimize. cached == nil means "all candidates eligible" (used before any
// capacity decision, and by tree-index construction).
func (p *Profile) QRPoints(cached func(id int) bool) [][]float32 {
	var qr [][]float32
	var ids []int32 // the eligible candidates of one query
	top := vec.NewTopK(p.K)
	for qi, q := range p.WL {
		ids = ids[:0]
		for _, id := range p.CandSets[qi] {
			if cached == nil || cached(int(id)) {
				ids = append(ids, id)
			}
		}
		// Four distances at a time, pushed in candidate order: the same
		// distances pushed in the same order as one Dist at a time.
		top.Reset(p.K)
		i := 0
		for ; i+4 <= len(ids); i += 4 {
			c := ids[i : i+4]
			d0, d1, d2, d3 := vec.SqDist4(q, p.DS.Point(int(c[0])), p.DS.Point(int(c[1])), p.DS.Point(int(c[2])), p.DS.Point(int(c[3])))
			top.Push(math.Sqrt(d0), int(c[0]))
			top.Push(math.Sqrt(d1), int(c[1]))
			top.Push(math.Sqrt(d2), int(c[2]))
			top.Push(math.Sqrt(d3), int(c[3]))
		}
		for _, id := range ids[i:] {
			top.Push(vec.Dist(q, p.DS.Point(int(id))), int(id))
		}
		res, _ := top.Drain()
		for _, id := range res {
			qr = append(qr, p.DS.Point(id))
		}
	}
	return qr
}

// HFFContent returns the ids the HFF policy admits for a given capacity:
// the capacity most frequent candidates.
func (p *Profile) HFFContent(capacity int) []int {
	if capacity >= len(p.Ranked) {
		return p.Ranked
	}
	return p.Ranked[:capacity]
}

// CachedSet builds a membership predicate over a list of non-negative ids,
// one bool per id up to the largest.
func CachedSet(ids []int) func(id int) bool {
	n := 0
	for _, id := range ids {
		n = max(n, id+1)
	}
	set := make([]bool, n)
	for _, id := range ids {
		set[id] = true
	}
	return func(id int) bool { return uint(id) < uint(len(set)) && set[id] }
}

// TopCandidates returns, for diagnostics and Figure 2 style plots, the
// frequency of the r-th most popular candidate for each rank r.
func (p *Profile) TopCandidates() []int {
	freqs := p.FreqSorted()
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	return freqs
}
