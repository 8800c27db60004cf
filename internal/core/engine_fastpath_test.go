package core

import (
	"runtime"
	"sort"
	"testing"
)

// forceParallelism raises GOMAXPROCS so reduceWorkers fans out even on a
// single-CPU CI box (concurrency, not parallelism, is what the equivalence
// and race checks need).
func forceParallelism(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// fastPathConfigs pairs a forced-reference engine against engines with the
// LUT and the parallel reduction forced on, so the equivalence check runs
// regardless of candidate-set sizes.
func fastPathConfigs(base Config) (ref Config, variants map[string]Config) {
	ref = base
	ref.lutMinCandidates = -1
	ref.parallelReduceThreshold = -1
	variants = map[string]Config{
		"lut":          {},
		"parallel":     {},
		"lut+parallel": {},
	}
	lut := base
	lut.lutMinCandidates = 1
	lut.parallelReduceThreshold = -1
	par := base
	par.lutMinCandidates = -1
	par.parallelReduceThreshold = 1
	both := base
	both.lutMinCandidates = 1
	both.parallelReduceThreshold = 1
	variants["lut"] = lut
	variants["parallel"] = par
	variants["lut+parallel"] = both
	return ref, variants
}

// TestFastPathsMatchReference is the acceptance invariant of the fast paths:
// for every caching method, the LUT and the parallel reduction (alone and
// combined) must return the same result ids and the same prune/true-hit/hit
// counters as the reference serial path.
func TestFastPathsMatchReference(t *testing.T) {
	forceParallelism(t)
	w := buildWorld(t, 1500, 12, 21)
	k := 10
	for _, m := range AllMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			base := Config{Method: m, CacheBytes: 64 << 10, Tau: 6}
			refCfg, variants := fastPathConfigs(base)
			ref, err := NewEngine(w.pf, w.prof, candFunc(w.ix), refCfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, cfg := range variants {
				eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for qi, q := range w.qtest {
					want, wst, err := ref.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, gst, err := eng.Search(q, k)
					if err != nil {
						t.Fatalf("%s query %d: %v", name, qi, err)
					}
					sort.Ints(want)
					sort.Ints(got)
					if len(got) != len(want) {
						t.Fatalf("%s query %d: %d ids, want %d", name, qi, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s query %d: ids %v, want %v", name, qi, got, want)
						}
					}
					if gst.Hits != wst.Hits || gst.Pruned != wst.Pruned ||
						gst.TrueHits != wst.TrueHits || gst.Remaining != wst.Remaining ||
						gst.Fetched != wst.Fetched {
						t.Fatalf("%s query %d: stats %+v, want %+v", name, qi, gst, wst)
					}
					if wst.UsedLUT {
						t.Fatalf("reference engine used the LUT")
					}
					if wst.ReduceWorkers > 1 {
						t.Fatalf("reference engine went parallel")
					}
				}
				// The forced variants must actually exercise their path on
				// methods that support it.
				agg := eng.Aggregate()
				if (name == "parallel" || name == "lut+parallel") && agg.ParallelQueries == 0 {
					t.Fatalf("%s: no query fanned out", name)
				}
				if m != NoCache && m != Exact && m != MHCR &&
					(name == "lut" || name == "lut+parallel") && agg.LUTQueries == 0 {
					t.Fatalf("%s: no query used the LUT", name)
				}
			}
		})
	}
}

// TestSearchIntoReusesBuffer pins the SearchInto contract: results are
// appended to dst and agree with Search.
func TestSearchIntoReusesBuffer(t *testing.T) {
	w := buildWorld(t, 800, 8, 22)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCD, CacheBytes: 1 << 18, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 0, 16)
	for _, q := range w.qtest {
		want, _, err := eng.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.SearchInto(q, 5, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("SearchInto %d ids, Search %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SearchInto %v, Search %v", got, want)
			}
		}
		if cap(dst) >= len(got) {
			dst = got // buffer was reused or grown; keep it for the next query
		}
	}
}

// TestConcurrentFastPathSearches drives one engine from many goroutines
// (the serve path) with LUT and parallel reduction forced on, so the race
// detector can audit the pooled scratch and the worker fan-out together.
func TestConcurrentFastPathSearches(t *testing.T) {
	forceParallelism(t)
	w := buildWorld(t, 1200, 12, 23)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
		Method: HCO, CacheBytes: 64 << 10, Tau: 6,
		lutMinCandidates: 1, parallelReduceThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 10; i++ {
				q := w.qtest[(g*7+i)%len(w.qtest)]
				if _, _, err := eng.Search(q, 10); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if agg := eng.Aggregate(); agg.Queries != 40 {
		t.Fatalf("aggregate recorded %d queries, want 40", agg.Queries)
	}
}
