package dbscan

import (
	"math/rand"
	"path/filepath"
	"testing"

	"exploitbit/internal/core"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/vafile"
	"exploitbit/internal/vec"
)

// blobs builds a dataset of well-separated Gaussian blobs and returns it
// with the ground-truth blob assignment.
func blobs(t testing.TB, perBlob, nBlobs, dim int, seed int64) (*dataset.Dataset, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := perBlob * nBlobs
	data := make([]float32, 0, n*dim)
	truth := make([]int, 0, n)
	for b := 0; b < nBlobs; b++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = float64(b)/float64(nBlobs) + 0.05
		}
		for i := 0; i < perBlob; i++ {
			for j := 0; j < dim; j++ {
				v := center[j] + rng.NormFloat64()*0.01
				data = append(data, float32(v))
			}
			truth = append(truth, b)
		}
	}
	ds := dataset.New("blobs", dim, data, vec.NewDomain(0, 1.2, 256))
	return ds, truth
}

func engineOver(t testing.TB, ds *dataset.Dataset, method core.Method) *core.Engine {
	t.Helper()
	pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), "pts"), ds, nil, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	ix := vafile.Build(ds, vafile.Params{BitsPerDim: 6})
	cands := func(dst []int, q []float32, k int) ([]int, float64) {
		r := ix.Candidates(q, k)
		return append(dst[:0], r.IDs...), r.Dmax
	}
	// The dataset itself is the probe workload.
	wl := make([][]float32, ds.Len())
	for i := range wl {
		wl[i] = ds.Point(i)
	}
	prof := core.BuildProfile(ds, cands, wl, 8)
	eng, err := core.NewEngine(pf, prof, cands, core.Config{Method: method, CacheBytes: 1 << 22, Tau: 7})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRecoversBlobs(t *testing.T) {
	ds, truth := blobs(t, 60, 4, 6, 51)
	eng := engineOver(t, ds, core.HCO)
	res, err := Run(eng, ds, 0.08, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 4 {
		t.Fatalf("found %d clusters, want 4", res.Clusters)
	}
	// Every blob must map to exactly one cluster label and vice versa.
	blobToCluster := map[int]int{}
	for i, lbl := range res.Labels {
		if lbl == Noise {
			continue
		}
		if prev, ok := blobToCluster[truth[i]]; ok && prev != lbl {
			t.Fatalf("blob %d split across clusters %d and %d", truth[i], prev, lbl)
		}
		blobToCluster[truth[i]] = lbl
	}
	if len(blobToCluster) != 4 {
		t.Fatalf("only %d blobs labeled", len(blobToCluster))
	}
	// Almost no noise on clean blobs.
	noise := 0
	for _, lbl := range res.Labels {
		if lbl == Noise {
			noise++
		}
	}
	if noise > ds.Len()/20 {
		t.Fatalf("%d/%d points labeled noise", noise, ds.Len())
	}
	if res.Cores == 0 {
		t.Fatal("no core points")
	}
}

func TestOutliersAreNoise(t *testing.T) {
	ds, _ := blobs(t, 50, 2, 4, 52)
	// Append far-away singletons.
	data := append([]float32(nil), ds.Data()...)
	outliers := [][]float32{{1.1, 1.1, 1.1, 1.1}, {1.15, 0.0, 1.15, 0.0}}
	for _, o := range outliers {
		data = append(data, o...)
	}
	ds2 := dataset.New("blobs+outliers", 4, data, ds.Domain)
	eng := engineOver(t, ds2, core.HCD)
	res, err := Run(eng, ds2, 0.08, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := ds2.Len() - 2; i < ds2.Len(); i++ {
		if res.Labels[i] != Noise {
			t.Fatalf("outlier %d labeled %d, want noise", i, res.Labels[i])
		}
	}
	if res.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.Clusters)
	}
}

func TestParameterValidation(t *testing.T) {
	ds, _ := blobs(t, 10, 1, 3, 53)
	eng := engineOver(t, ds, core.NoCache)
	if _, err := Run(eng, ds, 0, 4, 8); err == nil {
		t.Fatal("expected eps validation error")
	}
	if _, err := Run(eng, ds, 0.1, 1, 8); err == nil {
		t.Fatal("expected minPts validation error")
	}
}

func TestCacheReducesJoinIO(t *testing.T) {
	ds, _ := blobs(t, 80, 3, 8, 54)
	cold := engineOver(t, ds, core.NoCache)
	warm := engineOver(t, ds, core.HCO)
	rc, err := Run(cold, ds, 0.08, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(warm, ds, 0.08, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Same clustering either way.
	if rc.Clusters != rw.Clusters {
		t.Fatalf("cache changed clustering: %d vs %d", rc.Clusters, rw.Clusters)
	}
	for i := range rc.Labels {
		if (rc.Labels[i] == Noise) != (rw.Labels[i] == Noise) {
			t.Fatalf("cache changed noise status of %d", i)
		}
	}
	if rw.Stats.Fetched >= rc.Stats.Fetched {
		t.Fatalf("cached clustering fetched %d >= uncached %d", rw.Stats.Fetched, rc.Stats.Fetched)
	}
}
