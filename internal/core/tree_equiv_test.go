package core

import (
	"fmt"
	"sort"
	"testing"

	"exploitbit/internal/multistep"
	"exploitbit/internal/vec"
)

// This file pins the tree engine's refactor onto the shared reduction core:
// referenceTreeSearch is a verbatim port of the pre-refactor
// TreeEngine.Search (sqrt-space bounds, ad-hoc reduction, map-based
// refinement), and the equivalence test asserts the rebuilt SearchInto
// returns identical result identifiers in identical order with identical
// per-query statistics across indexes, methods and k.

// refPending is the pre-refactor pendingCand.
type refPending struct {
	id     int32
	leaf   int32
	lb, ub float64
}

// refKnown is the pre-refactor knownCand.
type refKnown struct {
	id int32
	d  float64
}

// referenceTreeSearch is the pre-refactor TreeEngine.Search, kept verbatim
// (modulo the removed struct fields it re-derives locally) as the behavioral
// oracle.
func referenceTreeSearch(e *TreeEngine, q []float32, k int) ([]int, QueryStats, error) {
	var st QueryStats
	lbs := e.ix.LeafLowerBounds(q)
	order := argsortByValue(lbs)

	io0 := e.store.Stats().PageReads
	ubTop := vec.NewTopK(k)  // k-th smallest known upper bound, for node cutoff
	var known []refKnown     // candidates with exact distances
	var pending []refPending // cached points deferred on bounds
	leaves := e.ix.Leaves()

	loadLeaf := func(li int) ([]int32, [][]float32, error) {
		ids, pts, err := e.store.Load(li)
		if err != nil {
			return nil, nil, err
		}
		st.Fetched += len(ids)
		return ids, pts, nil
	}

	for _, li := range order {
		if ubTop.Full() && lbs[li] >= ubTop.Root() {
			break
		}
		st.Candidates += len(leaves[li])
		examined := false
		if e.exactC != nil {
			if leafPts, ok := e.exactC.Get(li); ok {
				st.Hits += len(leafPts.pts)
				for i, id := range leaves[li] {
					d := vec.Dist(q, leafPts.pts[i])
					known = append(known, refKnown{id: id, d: d})
					ubTop.Push(d, int(id))
				}
				examined = true
			}
		} else if e.leafSlab != nil {
			if words, ok := e.leafSlab.Peek(li); ok {
				st.Hits += len(leaves[li])
				w := e.codec.Words()
				for i, id := range leaves[li] {
					lb, ub := e.table.BoundsPacked(q, words[i*w:(i+1)*w], e.codec)
					if lb < lbs[li] {
						lb = lbs[li] // node bound can be tighter
					}
					ubTop.Push(ub, int(id))
					pending = append(pending, refPending{id: id, leaf: int32(li), lb: lb, ub: ub})
				}
				examined = true
			}
		}
		if !examined {
			ids, pts, err := loadLeaf(li)
			if err != nil {
				return nil, st, err
			}
			for i, id := range ids {
				d := vec.Dist(q, pts[i])
				known = append(known, refKnown{id: id, d: d})
				ubTop.Push(d, int(id))
			}
		}
	}

	allLB := make([]float64, 0, len(known)+len(pending))
	allUB := make([]float64, 0, len(known)+len(pending))
	for _, c := range known {
		allLB = append(allLB, c.d)
		allUB = append(allUB, c.d)
	}
	for _, c := range pending {
		allLB = append(allLB, c.lb)
		allUB = append(allUB, c.ub)
	}
	lbk := multistep.KthSmallest(allLB, k)
	ubk := multistep.KthSmallest(allUB, k)

	var results []int
	resultSet := make(map[int32]bool)
	liveKnown := known[:0]
	for _, c := range known {
		if c.d > ubk {
			st.Pruned++
		} else {
			liveKnown = append(liveKnown, c)
		}
	}
	livePending := pending[:0]
	for _, c := range pending {
		switch {
		case c.lb > ubk:
			st.Pruned++
		case c.ub < lbk:
			st.TrueHits++
			results = append(results, int(c.id))
			resultSet[c.id] = true
		default:
			livePending = append(livePending, c)
		}
	}
	st.Remaining = len(livePending)

	kNeed := k - len(results)
	if kNeed > 0 {
		top := vec.NewTopK(kNeed)
		for _, c := range liveKnown {
			top.Push(c.d, int(c.id))
		}
		sort.Slice(livePending, func(a, b int) bool {
			if livePending[a].lb != livePending[b].lb {
				return livePending[a].lb < livePending[b].lb
			}
			return livePending[a].id < livePending[b].id
		})
		loaded := make(map[int32]bool)
		for _, pc := range livePending {
			if loaded[pc.leaf] {
				continue
			}
			if top.Full() && pc.lb >= top.Root() {
				break
			}
			ids, pts, err := loadLeaf(int(pc.leaf))
			if err != nil {
				return nil, st, err
			}
			loaded[pc.leaf] = true
			for i, id := range ids {
				if !resultSet[id] {
					top.Push(vec.Dist(q, pts[i]), int(id))
				}
			}
		}
		ids, _ := top.Results()
		results = append(results, ids...)
	}
	st.PageReads = e.store.Stats().PageReads - io0
	return results, st, nil
}

func TestTreeSearchEquivalence(t *testing.T) {
	for _, kind := range []string{"idistance", "vptree", "rtree"} {
		for seed := int64(31); seed <= 33; seed++ {
			w := buildTreeWorld(t, kind, 1000, 10, seed)
			for _, tc := range []struct {
				name string
				cfg  TreeConfig
			}{
				{"nocache", TreeConfig{Method: NoCache}},
				{"exact", TreeConfig{Method: Exact, CacheBytes: 128 << 10}},
				{"hcw", TreeConfig{Method: HCW, CacheBytes: 96 << 10, Tau: 7, lutMinCachedPoints: -1}},
				{"hco", TreeConfig{Method: HCO, CacheBytes: 96 << 10, Tau: 7, lutMinCachedPoints: -1}},
				{"hco-lut", TreeConfig{Method: HCO, CacheBytes: 96 << 10, Tau: 7, lutMinCachedPoints: 1}},
			} {
				t.Run(fmt.Sprintf("%s/%d/%s", kind, seed, tc.name), func(t *testing.T) {
					eng, err := NewTreeEngine(w.ds, w.ix, w.store, w.wl, 10, tc.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if tc.name == "hco-lut" && !eng.buildLUT {
						t.Fatal("LUT gate did not open with lutMinCachedPoints=1")
					}
					var dst []int
					for _, k := range []int{1, 5, 10} {
						for qi, q := range w.qtest {
							wantIDs, wantSt, err := referenceTreeSearch(eng, q, k)
							if err != nil {
								t.Fatal(err)
							}
							var gotSt QueryStats
							dst, gotSt, err = eng.SearchInto(q, k, dst[:0])
							if err != nil {
								t.Fatal(err)
							}
							if len(dst) != len(wantIDs) {
								t.Fatalf("k=%d query %d: %d ids, reference %d", k, qi, len(dst), len(wantIDs))
							}
							for i := range dst {
								if dst[i] != wantIDs[i] {
									t.Fatalf("k=%d query %d rank %d: id %d, reference %d\ngot  %v\nwant %v",
										k, qi, i, dst[i], wantIDs[i], dst, wantIDs)
								}
							}
							if gotSt.Candidates != wantSt.Candidates || gotSt.Hits != wantSt.Hits ||
								gotSt.Pruned != wantSt.Pruned || gotSt.TrueHits != wantSt.TrueHits ||
								gotSt.Remaining != wantSt.Remaining || gotSt.Fetched != wantSt.Fetched ||
								gotSt.PageReads != wantSt.PageReads {
								t.Fatalf("k=%d query %d stats diverged:\ngot  %+v\nwant %+v", k, qi, gotSt, wantSt)
							}
						}
					}
				})
			}
		}
	}
}
