package knnjoin

import (
	"path/filepath"
	"sort"
	"testing"

	"exploitbit/internal/core"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/vafile"
	"exploitbit/internal/vec"
)

// joinWorld builds an engine over S with probe set R as the workload,
// backed by the VA-file index so join results are exact.
func joinWorld(t testing.TB, nS, nR, dim int, method core.Method) (*core.Engine, *dataset.Dataset, [][]float32) {
	t.Helper()
	s := dataset.Generate(dataset.Config{Name: "S", N: nS, Dim: dim, Clusters: 6, Std: 0.05, Ndom: 256, Seed: 41})
	rds := dataset.Generate(dataset.Config{Name: "R", N: nR, Dim: dim, Clusters: 6, Std: 0.05, Ndom: 256, Seed: 42})
	probes := make([][]float32, nR)
	for i := range probes {
		probes[i] = rds.Point(i)
	}
	pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), "s.points"), s, nil, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	ix := vafile.Build(s, vafile.Params{BitsPerDim: 6})
	cands := func(dst []int, q []float32, k int) ([]int, float64) {
		r := ix.Candidates(q, k)
		return append(dst[:0], r.IDs...), r.Dmax
	}
	prof := core.BuildProfile(s, cands, probes, 5)
	eng, err := core.NewEngine(pf, prof, cands, core.Config{Method: method, CacheBytes: 1 << 20, Tau: 7})
	if err != nil {
		t.Fatal(err)
	}
	return eng, s, probes
}

func TestJoinMatchesBruteForce(t *testing.T) {
	eng, s, probes := joinWorld(t, 800, 60, 8, core.HCO)
	res, err := Run(eng, probes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != len(probes) {
		t.Fatalf("%d result rows", len(res.Neighbors))
	}
	for i, r := range probes {
		got := make([]float64, len(res.Neighbors[i]))
		for j, id := range res.Neighbors[i] {
			got[j] = vec.Dist(r, s.Point(id))
		}
		sort.Float64s(got)
		top := vec.NewTopK(5)
		for j := 0; j < s.Len(); j++ {
			top.Push(vec.Dist(r, s.Point(j)), j)
		}
		_, want := top.Results()
		for j := range want {
			if diff := got[j] - want[j]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("probe %d rank %d: %v want %v", i, j, got[j], want[j])
			}
		}
	}
	if res.Stats.Queries != len(probes) {
		t.Fatalf("stats recorded %d queries", res.Stats.Queries)
	}
}

func TestJoinCacheReducesIO(t *testing.T) {
	cold, _, probes := joinWorld(t, 1500, 80, 12, core.NoCache)
	warm, _, _ := joinWorld(t, 1500, 80, 12, core.HCO)
	rc, err := Run(cold, probes, 5)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(warm, probes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Stats.Fetched >= rc.Stats.Fetched {
		t.Fatalf("cached join fetched %d >= uncached %d", rw.Stats.Fetched, rc.Stats.Fetched)
	}
	if rw.Stats.Fetched*3 > rc.Stats.Fetched {
		t.Fatalf("expected >=3x I/O reduction: %d vs %d", rw.Stats.Fetched, rc.Stats.Fetched)
	}
}

func TestJoinPairs(t *testing.T) {
	res := &Result{Neighbors: [][]int{{3, 1}, {2}}}
	pairs := res.Pairs()
	want := []Pair{{0, 3}, {0, 1}, {1, 2}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}
}

func TestJoinRejectsBadK(t *testing.T) {
	eng, _, probes := joinWorld(t, 100, 5, 4, core.NoCache)
	if _, err := Run(eng, probes, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}
