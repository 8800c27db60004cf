package core

import (
	"testing"
)

// benchAllCachedTree builds a tree engine whose budget caches every leaf, on
// the R-tree (whose leaf bounds are computed allocation-free), so the
// benchmark isolates the steady-state serve path of Section 3.6.1.
func benchAllCachedTree(b *testing.B, method Method, lutMin int) (*TreeEngine, []float32) {
	w := buildTreeWorld(b, "rtree", 2000, 16, 205)
	eng, err := NewTreeEngine(w.ds, w.ix, w.store, w.wl, 10, TreeConfig{
		Method: method, CacheBytes: 1 << 30, Tau: 8, lutMinCachedPoints: lutMin,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, w.qtest[0]
}

// BenchmarkTreeEngineSearch is the all-cached-leaves steady state on the
// EXACT leaf cache: with a reused result buffer it must report 0 allocs/op —
// the pooled tree scratch (shared reduction core, group refinement buffers,
// leaf sorter) absorbs every per-query working set.
func BenchmarkTreeEngineSearch(b *testing.B) {
	eng, q := benchAllCachedTree(b, Exact, 0)
	dst := make([]int, 0, 64)
	if _, _, err := eng.SearchInto(q, 10, dst[:0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = eng.SearchInto(q, 10, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeEngineSearchHCO is the same steady state on the approximate
// leaf cache with the per-query LUT, exercising the batch bound scoring.
func BenchmarkTreeEngineSearchHCO(b *testing.B) {
	eng, q := benchAllCachedTree(b, HCO, 1)
	dst := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = eng.SearchInto(q, 10, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeEngineSearchHCONoLUT disables the LUT on the same workload,
// isolating what batch ADC scoring buys the tree path.
func BenchmarkTreeEngineSearchHCONoLUT(b *testing.B) {
	eng, q := benchAllCachedTree(b, HCO, -1)
	dst := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, _, err = eng.SearchInto(q, 10, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
