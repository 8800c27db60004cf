package multistep

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exploitbit/internal/vec"
)

// batchWorld synthesizes real vectors partitioned into fetch units, so the
// batch scheduler's own distance computations can be checked against the
// per-query paths.
type batchWorld struct {
	dim   int
	pts   map[int32][]float32
	group map[int32]int32
	ids   map[int32][]int32
}

func makeBatchWorld(rng *rand.Rand, nGroups, perGroup, dim int) *batchWorld {
	w := &batchWorld{
		dim:   dim,
		pts:   map[int32][]float32{},
		group: map[int32]int32{},
		ids:   map[int32][]int32{},
	}
	id := int32(0)
	for g := int32(0); g < int32(nGroups); g++ {
		for i := 0; i < perGroup; i++ {
			p := make([]float32, dim)
			for d := range p {
				p[d] = rng.Float32() * 10
			}
			w.pts[id] = p
			w.group[id] = g
			w.ids[g] = append(w.ids[g], id)
			id++
		}
	}
	return w
}

func (w *batchWorld) randQuery(rng *rand.Rand) []float32 {
	q := make([]float32, w.dim)
	for d := range q {
		q[d] = rng.Float32() * 10
	}
	return q
}

// batchFetch counts unit loads; the returned slices are fresh per call, as
// the BatchFetch contract requires.
func (w *batchWorld) batchFetch(loads *int) BatchFetch {
	return func(unit int32, item int) ([]int32, [][]float32, error) {
		*loads++
		ids := append([]int32(nil), w.ids[unit]...)
		pts := make([][]float32, len(ids))
		for i, id := range ids {
			pts[i] = w.pts[id]
		}
		return ids, pts, nil
	}
}

// ownGroupFetchFor adapts the world to the per-query GroupFetch for query q
// under own-only distribution: a loaded group yields only the identifiers
// in own, with their exact squared distances to q.
func (w *batchWorld) ownGroupFetchFor(q []float32, own map[int32]bool, loads *int) GroupFetch {
	return func(g int32) ([]int32, []float64, error) {
		*loads++
		var ids []int32
		var sq []float64
		for _, id := range w.ids[g] {
			if own[id] {
				ids = append(ids, id)
				sq = append(sq, vec.SqDist(q, w.pts[id]))
			}
		}
		return ids, sq, nil
	}
}

// TestSearchBatchSqMatchesPerQuery runs random batches with seeds and
// overlapping pending sets, and checks that every query's batch results are
// identical to its solo SearchGroupsSq results over the same own-only
// groups, while total unit loads never exceed the per-query sum.
func TestSearchBatchSqMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 30; trial++ {
		w := makeBatchWorld(rng, 2+rng.Intn(6), 1+rng.Intn(8), 4)
		nq := 1 + rng.Intn(5)
		k := 1 + rng.Intn(6)

		items := make([]BatchQuery, nq)
		owns := make([]map[int32]bool, nq)
		for j := range items {
			q := w.randQuery(rng)
			var seeds, pending []GroupCandidate
			own := map[int32]bool{}
			nextSeed := int32(100000 + 1000*j)
			for id := range w.pts {
				switch rng.Intn(4) {
				case 0:
					seeds = append(seeds, GroupCandidate{ID: nextSeed, Group: -1, LBSq: rng.Float64() * 100})
					nextSeed++
				case 1, 2:
					d2 := vec.SqDist(q, w.pts[id])
					pending = append(pending, GroupCandidate{ID: id, Group: w.group[id], LBSq: d2 * rng.Float64()})
					own[id] = true
				}
			}
			items[j] = BatchQuery{Q: q, Seeds: seeds, Pending: pending, K: k}
			owns[j] = own
		}

		batchLoads := 0
		got, reported, err := SearchBatchSq(items, w.batchFetch(&batchLoads))
		if err != nil {
			t.Fatal(err)
		}
		if reported != batchLoads {
			t.Fatalf("trial %d: reported %d loads, fetch saw %d", trial, reported, batchLoads)
		}

		soloSum := 0
		for j, it := range items {
			var sc Scratch
			want, _, err := sc.SearchGroupsSq(it.Seeds, it.Pending, it.K, nil, w.ownGroupFetchFor(it.Q, owns[j], &soloSum), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[j]) != len(want) {
				t.Fatalf("trial %d query %d: %d results, want %d", trial, j, len(got[j]), len(want))
			}
			for i := range want {
				if got[j][i].ID != want[i].ID {
					t.Fatalf("trial %d query %d rank %d: id %d, want %d", trial, j, i, got[j][i].ID, want[i].ID)
				}
				if math.Abs(got[j][i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("trial %d query %d rank %d: dist %v, want %v", trial, j, i, got[j][i].Dist, want[i].Dist)
				}
			}
		}
		if batchLoads > soloSum {
			t.Fatalf("trial %d: batch loaded %d units, per-query sum is %d", trial, batchLoads, soloSum)
		}
	}
}

// TestSearchBatchSqCoalesces floods every query with zero-lower-bound
// candidates over every unit: each query refined alone (a one-item batch)
// reads every unit, the batch reads each unit exactly once.
func TestSearchBatchSqCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const nGroups, nq = 5, 4
	w := makeBatchWorld(rng, nGroups, 6, 4)

	items := make([]BatchQuery, nq)
	for j := range items {
		q := w.randQuery(rng)
		var pending []GroupCandidate
		for id := range w.pts {
			pending = append(pending, GroupCandidate{ID: id, Group: w.group[id], LBSq: 0})
		}
		items[j] = BatchQuery{Q: q, Pending: pending, K: 3}
	}

	batchLoads := 0
	_, _, err := SearchBatchSq(items, w.batchFetch(&batchLoads))
	if err != nil {
		t.Fatal(err)
	}
	if batchLoads != nGroups {
		t.Fatalf("batch loaded %d units, want one per unit (%d)", batchLoads, nGroups)
	}
	soloSum := 0
	for _, it := range items {
		if _, _, err := SearchBatchSq([]BatchQuery{it}, w.batchFetch(&soloSum)); err != nil {
			t.Fatal(err)
		}
	}
	if soloSum != nGroups*nq {
		t.Fatalf("per-query sum loaded %d units, want %d", soloSum, nGroups*nq)
	}
}

// TestSearchBatchSqOwnOnly checks the distribution rule: a loaded unit feeds
// only a query's own pending identifiers, so a shared page never leaks
// another query's points into the selection, and the k results are the k
// smallest exact distances among the query's own candidates.
func TestSearchBatchSqOwnOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		w := makeBatchWorld(rng, 2+rng.Intn(5), 2+rng.Intn(6), 4)
		nq := 1 + rng.Intn(4)
		k := 1 + rng.Intn(5)

		items := make([]BatchQuery, nq)
		ownIDs := make([]map[int32]float64, nq) // id → exact squared distance
		for j := range items {
			q := w.randQuery(rng)
			elig := map[int32]float64{}
			var pending []GroupCandidate
			for id := range w.pts {
				if rng.Intn(2) == 0 {
					continue // not this query's candidate
				}
				d2 := vec.SqDist(q, w.pts[id])
				pending = append(pending, GroupCandidate{ID: id, Group: w.group[id], LBSq: d2 * rng.Float64()})
				elig[id] = d2
			}
			items[j] = BatchQuery{Q: q, Pending: pending, K: k}
			ownIDs[j] = elig
		}

		loads := 0
		got, _, err := SearchBatchSq(items, w.batchFetch(&loads))
		if err != nil {
			t.Fatal(err)
		}
		for j := range items {
			want := bruteTopK(ownIDs[j], k)
			if len(got[j]) != len(want) {
				t.Fatalf("trial %d query %d: %d results, want %d", trial, j, len(got[j]), len(want))
			}
			for i, r := range got[j] {
				if _, mine := ownIDs[j][int32(r.ID)]; !mine {
					t.Fatalf("trial %d query %d: foreign id %d leaked into results", trial, j, r.ID)
				}
				if math.Abs(r.Dist-math.Sqrt(want[i])) > 1e-9 {
					t.Fatalf("trial %d query %d rank %d: dist %v, want %v", trial, j, i, r.Dist, math.Sqrt(want[i]))
				}
			}
		}
	}
}

// TestSearchBatchSqOptimalStop seeds every query to saturation: distant
// pending candidates must not trigger any unit load.
func TestSearchBatchSqOptimalStop(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	w := makeBatchWorld(rng, 3, 5, 4)
	items := make([]BatchQuery, 3)
	for j := range items {
		q := w.randQuery(rng)
		seeds := []GroupCandidate{{ID: 1000, Group: -1, LBSq: 0}, {ID: 1001, Group: -1, LBSq: 0}}
		var pending []GroupCandidate
		for id := range w.pts {
			pending = append(pending, GroupCandidate{ID: id, Group: w.group[id], LBSq: vec.SqDist(q, w.pts[id]) + 1e6})
		}
		items[j] = BatchQuery{Q: q, Seeds: seeds, Pending: pending, K: 2}
	}
	loads := 0
	got, _, err := SearchBatchSq(items, w.batchFetch(&loads))
	if err != nil {
		t.Fatal(err)
	}
	if loads != 0 {
		t.Fatalf("loaded %d units despite full seed coverage", loads)
	}
	for j := range got {
		if len(got[j]) != 2 {
			t.Fatalf("query %d returned %d results, want 2", j, len(got[j]))
		}
	}
}

// TestSearchBatchSqEdgeCases: k < 1 yields no results and no loads; an
// empty batch is fine; fetch errors surface wrapped.
func TestSearchBatchSqEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	w := makeBatchWorld(rng, 2, 3, 4)

	loads := 0
	got, n, err := SearchBatchSq([]BatchQuery{{Q: w.randQuery(rng), K: 0}}, w.batchFetch(&loads))
	if err != nil || n != 0 || got[0] != nil {
		t.Fatalf("k=0: got %v, %d loads, err %v", got, n, err)
	}

	if got, _, err := SearchBatchSq(nil, w.batchFetch(&loads)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}

	boom := errors.New("disk gone")
	items := []BatchQuery{{
		Q:       w.randQuery(rng),
		Pending: []GroupCandidate{{ID: 0, Group: w.group[0], LBSq: 0}},
		K:       1,
	}}
	_, _, err = SearchBatchSq(items, func(unit int32, item int) ([]int32, [][]float32, error) {
		return nil, nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fetch error not propagated: %v", err)
	}
}
