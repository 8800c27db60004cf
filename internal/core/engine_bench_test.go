package core

import (
	"testing"
	"time"

	"exploitbit/internal/disk"
)

// BenchmarkSearch measures one full Algorithm-1 query (generation +
// reduction + refinement, zero simulated latency) per caching method.
func BenchmarkSearch(b *testing.B) {
	w := buildWorld(b, 4000, 32, 201)
	for _, m := range []Method{NoCache, Exact, HCD, HCO} {
		m := m
		b.Run(string(m), func(b *testing.B) {
			eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
				Method: m, CacheBytes: 1 << 20, Tau: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Search(w.qtest[i%len(w.qtest)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineBuild measures the offline construction cost per method
// (histogram + cache fill) once the profile exists.
func BenchmarkEngineBuild(b *testing.B) {
	w := buildWorld(b, 4000, 32, 202)
	for _, m := range []Method{Exact, HCD, HCO, IHCO} {
		m := m
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
					Method: m, CacheBytes: 1 << 20, Tau: 8,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchAllHitsEngine builds an all-hits engine (C-VA covers the whole
// dataset) with a frozen candidate list, so the benchmark isolates Phases
// 2–3 of Search from index traversal.
func benchAllHitsEngine(b *testing.B, lutMin, parMin int, noSlab bool) (*Engine, []float32) {
	w := buildWorld(b, 2000, 16, 77)
	q := w.qtest[0]
	ids, dmax := candFunc(w.ix)(nil, q, 10)
	static := func(dst []int, _ []float32, _ int) ([]int, float64) { return append(dst[:0], ids...), dmax }
	eng, err := NewEngine(w.pf, w.prof, static, Config{
		Method: CVA, CacheBytes: 1 << 30,
		lutMinCandidates: lutMin, parallelReduceThreshold: parMin,
		noSlab: noSlab,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, q
}

// BenchmarkEngineSearch is the steady-state serve path on the all-hits
// (fully cached) configuration: with a reused result buffer it must report
// 0 allocs/op — the pooled scratch absorbs every per-query working set.
func BenchmarkEngineSearch(b *testing.B) {
	eng, q := benchAllHitsEngine(b, 0, -1, false)
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

// BenchmarkSearchWaitedIO is the other side of BenchmarkEngineSearch: the
// paper's regime, where a search waits for its pages. 5 000 points, an HC-O
// cache of 10 % of the data and a device that delays every page read by
// 200 µs; reads/op is what the optimal schedule must read and waits/op how
// often the query actually blocked for it (equal when reads go one at a
// time — see QueryStats.RefineWaits).
func BenchmarkSearchWaitedIO(b *testing.B) {
	w := buildWorld(b, 5000, 32, 204)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
		Method: HCO, CacheBytes: int64(w.ds.Len()*w.ds.PointSize()) / 10, Tau: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	w.pf.SetFaults(disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{
		{Kind: disk.FaultLatency, FirstPage: 0, LastPage: -1, Latency: 200 * time.Microsecond},
	}}))
	defer w.pf.SetFaults(nil)
	dst := make([]int, 0, 64)
	if _, _, err := eng.SearchInto(w.qtest[0], 10, dst[:0]); err != nil {
		b.Fatal(err)
	}
	eng.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, _, err = eng.SearchInto(w.qtest[i%len(w.qtest)], 10, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	agg := eng.Aggregate()
	b.ReportMetric(agg.AvgIO(), "reads/op")
	b.ReportMetric(float64(agg.RefineWaits)/float64(b.N), "waits/op")
}

// BenchmarkEngineSearchNoLUT is the same path with the lookup table
// disabled, isolating what the ADC trick buys end to end.
func BenchmarkEngineSearchNoLUT(b *testing.B) {
	eng, q := benchAllHitsEngine(b, -1, -1, false)
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

// BenchmarkEngineSearchMap is BenchmarkEngineSearch on the map-backed layout
// (Config.noSlab) — the before/after pair that prices the slab arena and the
// fused blocked kernel. Must also stay 0 allocs/op.
func BenchmarkEngineSearchMap(b *testing.B) {
	eng, q := benchAllHitsEngine(b, 0, -1, true)
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

// BenchmarkProfile measures workload profiling throughput (queries/sec of
// the offline pipeline's dominant step).
func BenchmarkProfile(b *testing.B) {
	w := buildWorld(b, 4000, 32, 203)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildProfile(w.ds, candFunc(w.ix), w.wl[:100], 10)
	}
	b.ReportMetric(float64(100), "queries/op")
}
