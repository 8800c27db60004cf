package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"exploitbit/internal/cache"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/lsh"
	"exploitbit/internal/vec"
)

// world bundles a test dataset, point file, index and workload profile.
type world struct {
	ds    *dataset.Dataset
	pf    *disk.PointFile
	ix    *lsh.Index
	prof  *Profile
	wl    [][]float32
	qtest [][]float32
}

func buildWorld(t testing.TB, n, dim int, seed int64) *world {
	t.Helper()
	ds := dataset.Generate(dataset.Config{Name: "t", N: n, Dim: dim, Clusters: 6, Std: 0.05, Ndom: 256, Seed: seed})
	pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), "pf"), ds, nil, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	ix := lsh.Build(ds, lsh.Params{Seed: seed + 1, MaxM: 48})
	log := dataset.GenLog(ds, dataset.LogConfig{PoolSize: 60, Length: 400, ZipfS: 1.4, Perturb: 0.005, Seed: seed + 2})
	wl, qtest := log.Split(20)
	prof := BuildProfile(ds, candFunc(ix), wl, 10)
	return &world{ds: ds, pf: pf, ix: ix, prof: prof, wl: wl, qtest: qtest}
}

func candFunc(ix *lsh.Index) CandidateFunc {
	return func(dst []int, q []float32, k int) ([]int, float64) {
		r := ix.CandidatesInto(dst, q, k)
		return r.IDs, r.Dmax
	}
}

// knnOfCandidates is the ground truth Algorithm 1 must reproduce: the k
// nearest points of q among the candidate set.
func knnOfCandidates(ds *dataset.Dataset, q []float32, ids []int, k int) []float64 {
	ds2 := make([]float64, len(ids))
	for i, id := range ids {
		ds2[i] = vec.Dist(q, ds.Point(id))
	}
	sort.Float64s(ds2)
	if len(ds2) > k {
		ds2 = ds2[:k]
	}
	return ds2
}

func TestSearchPreservesResultQualityAllMethods(t *testing.T) {
	w := buildWorld(t, 1500, 12, 1)
	k := 10
	for _, m := range AllMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
				Method: m, CacheBytes: 64 << 10, Tau: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range w.qtest {
				ids, dmax := candFunc(w.ix)(nil, q, k)
				want := knnOfCandidates(w.ds, q, ids, k)
				got, st, err := eng.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
				}
				gd := make([]float64, len(got))
				for i, id := range got {
					gd[i] = vec.Dist(q, w.ds.Point(id))
				}
				sort.Float64s(gd)
				for i := range want {
					if math.Abs(gd[i]-want[i]) > 1e-9 {
						t.Fatalf("query %d rank %d: dist %v, want %v (method %s)", qi, i, gd[i], want[i], m)
					}
				}
				if st.Remaining > st.Candidates {
					t.Fatalf("remaining %d > candidates %d", st.Remaining, st.Candidates)
				}
				_ = dmax
			}
		})
	}
}

func TestNoCacheFetchesEverything(t *testing.T) {
	w := buildWorld(t, 800, 8, 2)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: NoCache})
	if err != nil {
		t.Fatal(err)
	}
	q := w.qtest[0]
	_, st, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 0 || st.Pruned != 0 || st.TrueHits != 0 {
		t.Fatalf("NO-CACHE should not hit/prune: %+v", st)
	}
	if st.Fetched != st.Candidates {
		t.Fatalf("NO-CACHE fetched %d of %d candidates", st.Fetched, st.Candidates)
	}
	if st.Remaining != st.Candidates {
		t.Fatalf("NO-CACHE remaining %d != candidates %d", st.Remaining, st.Candidates)
	}
}

func TestExactCacheHitsAvoidIO(t *testing.T) {
	w := buildWorld(t, 800, 8, 3)
	// Budget large enough to cache every candidate ever seen.
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: Exact, CacheBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// A workload query whose candidates are all hot should need no I/O.
	q := w.wl[0]
	_, st, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != st.Candidates {
		t.Fatalf("full EXACT cache: %d hits of %d candidates", st.Hits, st.Candidates)
	}
	if st.Fetched != 0 || st.PageReads != 0 {
		t.Fatalf("full EXACT cache still fetched %d points / %d pages", st.Fetched, st.PageReads)
	}
}

func TestHistogramCacheReducesIO(t *testing.T) {
	// The paper's regime: a cache far smaller than the candidate working
	// set, so EXACT caching misses often while the histogram cache (8× more
	// items per byte at τ=6, d=16 → 128 vs 512 bits) retains coverage.
	w := buildWorld(t, 2000, 16, 4)
	budget := int64(10 << 10)
	none, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: NoCache})
	if err != nil {
		t.Fatal(err)
	}
	hco, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: budget, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: Exact, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.qtest {
		for _, e := range []*Engine{none, hco, exact} {
			if _, _, err := e.Search(q, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	ioNone := none.Aggregate().AvgIO()
	ioHCO := hco.Aggregate().AvgIO()
	ioExact := exact.Aggregate().AvgIO()
	if ioHCO >= ioNone {
		t.Fatalf("HC-O I/O %v not below NO-CACHE %v", ioHCO, ioNone)
	}
	if ioHCO >= ioExact {
		t.Fatalf("HC-O I/O %v not below EXACT %v at equal budget", ioHCO, ioExact)
	}
	if hr := hco.Aggregate().HitRatio(); hr <= exact.Aggregate().HitRatio() {
		t.Fatalf("HC-O hit ratio %v should beat EXACT %v (8x more items fit)", hr, exact.Aggregate().HitRatio())
	}
}

func TestHCOBeatsHCWOnIO(t *testing.T) {
	w := buildWorld(t, 2000, 16, 5)
	budget := int64(48 << 10)
	mk := func(m Method) *Engine {
		e, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: m, CacheBytes: budget, Tau: 6})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	hcw, hco := mk(HCW), mk(HCO)
	for _, q := range w.qtest {
		if _, _, err := hcw.Search(q, 10); err != nil {
			t.Fatal(err)
		}
		if _, _, err := hco.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	if o, wI := hco.Aggregate().AvgIO(), hcw.Aggregate().AvgIO(); o > wI {
		t.Fatalf("HC-O I/O %v above HC-W %v", o, wI)
	}
}

func TestLRUWarmsUp(t *testing.T) {
	w := buildWorld(t, 800, 8, 6)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: Exact, CacheBytes: 1 << 22, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	// LRU starts empty.
	if eng.CacheLen() != 0 {
		t.Fatalf("LRU cache pre-filled with %d items", eng.CacheLen())
	}
	q := w.qtest[0]
	_, cold, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hits != 0 {
		t.Fatalf("cold query hit %d", cold.Hits)
	}
	if warm.Hits == 0 {
		t.Fatal("repeat query missed entirely despite LRU inserts")
	}
	if warm.Fetched >= cold.Fetched && cold.Fetched > 0 {
		t.Fatalf("repeat query fetched %d, cold %d", warm.Fetched, cold.Fetched)
	}
}

func TestTrueHitDetectionAblation(t *testing.T) {
	w := buildWorld(t, 1500, 12, 7)
	on, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 1 << 20, Tau: 8})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 1 << 20, Tau: 8, NoTrueHitDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	var hitsOn int64
	for _, q := range w.qtest {
		_, so, err := on.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		_, sf, err := off.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		hitsOn += int64(so.TrueHits)
		if sf.TrueHits != 0 {
			t.Fatal("ablated engine still detected true hits")
		}
	}
	// Results must stay exact either way (covered by the quality test);
	// detection should fire at least sometimes on a warm cache.
	if hitsOn == 0 {
		t.Log("note: no true hits detected in this configuration")
	}
}

func TestCVAFitsWholeDataset(t *testing.T) {
	w := buildWorld(t, 500, 16, 8)
	// Budget comfortably holds all 500 points at some τ ≥ 1.
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: CVA, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if eng.CacheLen() != w.ds.Len() {
		t.Fatalf("C-VA cached %d of %d points", eng.CacheLen(), w.ds.Len())
	}
	_, st, err := eng.Search(w.qtest[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != st.Candidates {
		t.Fatalf("C-VA with full coverage missed: %d/%d", st.Hits, st.Candidates)
	}
}

func TestCVAPartialBudget(t *testing.T) {
	w := buildWorld(t, 500, 16, 9)
	// 500 points × 16 dims × 1 bit = 1000 bytes minimum; give less.
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: CVA, CacheBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if eng.CacheLen() >= w.ds.Len() {
		t.Fatalf("partial C-VA cached everything (%d)", eng.CacheLen())
	}
	if _, _, err := eng.Search(w.qtest[0], 5); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRejectsUnknownMethod(t *testing.T) {
	w := buildWorld(t, 100, 4, 10)
	if _, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: Method("bogus")}); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestAggregateAccumulates(t *testing.T) {
	w := buildWorld(t, 500, 8, 11)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCD, CacheBytes: 1 << 18, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.qtest[:5] {
		if _, _, err := eng.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	agg := eng.Aggregate()
	if agg.Queries != 5 {
		t.Fatalf("Queries = %d", agg.Queries)
	}
	if agg.AvgCandidates() <= 0 {
		t.Fatal("no candidates recorded")
	}
	if agg.HitRatio() < 0 || agg.HitRatio() > 1 {
		t.Fatalf("hit ratio %v", agg.HitRatio())
	}
	eng.ResetStats()
	if eng.Aggregate().Queries != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestProfileInternals(t *testing.T) {
	w := buildWorld(t, 500, 8, 12)
	p := w.prof
	if p.AvgCandSize <= 0 || p.AvgDmax <= 0 {
		t.Fatalf("profile averages: %v %v", p.AvgCandSize, p.AvgDmax)
	}
	fs := p.FreqSorted()
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(fs))) {
		t.Fatal("FreqSorted not descending")
	}
	// HFF content is a prefix of the ranking.
	content := p.HFFContent(3)
	for i := range content {
		if content[i] != p.Ranked[i] {
			t.Fatal("HFFContent not a ranking prefix")
		}
	}
	if len(p.HFFContent(1<<30)) != len(p.Ranked) {
		t.Fatal("oversized HFFContent should return everything")
	}
	// QR respects the cached predicate.
	qr := p.QRPoints(func(id int) bool { return false })
	if len(qr) != 0 {
		t.Fatalf("QR over empty cache has %d points", len(qr))
	}
	qrAll := p.QRPoints(nil)
	if len(qrAll) == 0 || len(qrAll) > len(p.WL)*p.K {
		t.Fatalf("QR size %d implausible", len(qrAll))
	}
}

func TestZipfWorkloadCacheable(t *testing.T) {
	// Sanity for the whole premise: with a Zipf workload, a cache holding
	// 25% of distinct candidates should serve well over 25% of lookups.
	w := buildWorld(t, 1500, 12, 13)
	capacity := len(w.prof.Ranked) / 4
	hr := hitRatioAt(w.prof, capacity)
	if hr < 0.4 {
		t.Fatalf("hit ratio %v at 25%% capacity — workload not skewed enough", hr)
	}
}

func hitRatioAt(p *Profile, capacity int) float64 {
	fs := p.FreqSorted()
	var top, total int64
	for i, f := range fs {
		total += int64(f)
		if i < capacity {
			top += int64(f)
		}
	}
	return float64(top) / float64(total)
}

func TestQuickSearchInvarianceAcrossConfigs(t *testing.T) {
	// Property: for ANY cache configuration (method, τ, budget), Search
	// returns the same distance profile as the uncached reference — the
	// paper's central no-quality-loss guarantee. Randomized configs.
	w := buildWorld(t, 900, 8, 91)
	ref, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: NoCache})
	if err != nil {
		t.Fatal(err)
	}
	methods := AllMethods()
	check := func(mIdx, tauRaw uint8, budgetRaw uint32, qIdx uint8) bool {
		m := methods[int(mIdx)%len(methods)]
		tau := 1 + int(tauRaw)%12
		budget := int64(budgetRaw % (1 << 20))
		q := w.qtest[int(qIdx)%len(w.qtest)]
		eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
			Method: m, CacheBytes: budget, Tau: tau,
		})
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		k := 5
		got, _, err := eng.Search(q, k)
		if err != nil {
			t.Logf("search failed: %v", err)
			return false
		}
		want, _, err := ref.Search(q, k)
		if err != nil {
			t.Logf("reference failed: %v", err)
			return false
		}
		gd := distProfile(w.ds, q, got)
		wd := distProfile(w.ds, q, want)
		if len(gd) != len(wd) {
			return false
		}
		for i := range gd {
			if math.Abs(gd[i]-wd[i]) > 1e-9 {
				t.Logf("method %s tau %d budget %d: rank %d %v vs %v", m, tau, budget, i, gd[i], wd[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(92))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func distProfile(ds *dataset.Dataset, q []float32, ids []int) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = vec.Dist(q, ds.Point(id))
	}
	sort.Float64s(out)
	return out
}
