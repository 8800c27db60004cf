package vafile

import (
	"math/rand"
	"sort"
	"testing"

	"exploitbit/internal/dataset"
	"exploitbit/internal/vec"
)

func testDS(n, dim int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Config{Name: "t", N: n, Dim: dim, Clusters: 5, Std: 0.05, Seed: seed})
}

func TestCandidatesAlwaysContainTrueKNN(t *testing.T) {
	// VA-file filtering is lossless: bounds are conservative, so the true
	// kNN can never be filtered out. This must hold deterministically.
	ds := testDS(800, 12, 1)
	ix := Build(ds, Params{BitsPerDim: 5})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		q := ds.Point(rng.Intn(ds.Len()))
		k := 1 + rng.Intn(10)
		res := ix.Candidates(q, k)
		in := make(map[int]bool, len(res.IDs))
		for _, id := range res.IDs {
			in[id] = true
		}
		top := vec.NewTopK(k)
		for i := 0; i < ds.Len(); i++ {
			top.Push(vec.Dist(q, ds.Point(i)), i)
		}
		ids, dists := top.Results()
		for r, id := range ids {
			if !in[id] {
				// A tie at the boundary may legitimately swap equal-distance
				// points; accept if some candidate has the same distance.
				ok := false
				for _, cid := range res.IDs {
					if vec.Dist(q, ds.Point(cid)) <= dists[r]+1e-9 {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d: true neighbor %d missing from %d candidates", trial, id, len(res.IDs))
				}
			}
		}
	}
}

func TestCandidatesSortedAndBounded(t *testing.T) {
	ds := testDS(500, 10, 3)
	ix := Build(ds, Params{BitsPerDim: 6})
	q := ds.Point(7)
	res := ix.Candidates(q, 5)
	if len(res.IDs) < 5 {
		t.Fatalf("only %d candidates", len(res.IDs))
	}
	if !sort.Float64sAreSorted(res.LBs) {
		t.Fatal("candidates not sorted by lower bound")
	}
	for i, id := range res.IDs {
		d := vec.Dist(q, ds.Point(id))
		if res.LBs[i] > d+1e-9 || res.UBs[i] < d-1e-9 {
			t.Fatalf("candidate %d bounds [%v,%v] miss dist %v", id, res.LBs[i], res.UBs[i], d)
		}
		if res.LBs[i] > res.Dmax+1e-9 {
			t.Fatalf("candidate %d lb %v beyond Dmax %v", id, res.LBs[i], res.Dmax)
		}
	}
}

func TestMoreBitsFilterMore(t *testing.T) {
	ds := testDS(1000, 16, 4)
	coarse := Build(ds, Params{BitsPerDim: 2})
	fine := Build(ds, Params{BitsPerDim: 8})
	var nc, nf int
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		q := ds.Point(rng.Intn(ds.Len()))
		nc += len(coarse.Candidates(q, 10).IDs)
		nf += len(fine.Candidates(q, 10).IDs)
	}
	if nf >= nc {
		t.Fatalf("finer grid kept more candidates: %d vs %d", nf, nc)
	}
}

func TestApproxBytes(t *testing.T) {
	ds := testDS(100, 10, 6)
	ix := Build(ds, Params{BitsPerDim: 6})
	// 10 dims × 6 bits = 60 bits → 1 word = 8 bytes per point.
	if got := ix.ApproxBytes(); got != 100*8 {
		t.Fatalf("ApproxBytes = %d", got)
	}
	if ix.BitsPerDim() != 6 {
		t.Fatalf("BitsPerDim = %d", ix.BitsPerDim())
	}
}

func TestDefaultsAndClamps(t *testing.T) {
	ds := testDS(50, 4, 7)
	if got := Build(ds, Params{}).BitsPerDim(); got != 6 {
		t.Fatalf("default bits = %d", got)
	}
	if got := Build(ds, Params{BitsPerDim: 99}).BitsPerDim(); got != 16 {
		t.Fatalf("clamped bits = %d", got)
	}
}

func TestQueryDimMismatchPanics(t *testing.T) {
	ds := testDS(50, 4, 8)
	ix := Build(ds, Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Candidates([]float32{1}, 1)
}

func TestKMinTracksKthSmallest(t *testing.T) {
	// Regression: the sift-down of the bounded heap failed to descend,
	// under-reporting the k-th smallest and silently dropping candidates.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		n := k + rng.Intn(50)
		m := newKMin(k)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
			m.push(vals[i])
		}
		sort.Float64s(vals)
		if got := m.kth(); got != vals[k-1] {
			t.Fatalf("trial %d: kth = %v, want %v (k=%d n=%d)", trial, got, vals[k-1], k, n)
		}
	}
	if newKMin(3).kth() != 0 {
		t.Fatal("empty kMin should report 0")
	}
}
