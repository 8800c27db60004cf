package lsh

import (
	"fmt"
	"testing"

	"exploitbit/internal/dataset"
)

func BenchmarkBuild5000x150(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Name: "b", N: 5000, Dim: 150, Clusters: 20, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds, Params{Seed: 2})
	}
}

// BenchmarkCandidates measures Phase 1 cost per query (collision counting
// with virtual rehashing).
func BenchmarkCandidates5000x150(b *testing.B) {
	ds := dataset.Generate(dataset.Config{Name: "b", N: 5000, Dim: 150, Clusters: 20, Seed: 1})
	ix := Build(ds, Params{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Candidates(ds.Point(i%ds.Len()), 10)
	}
}

// BenchmarkCandidates25000x150 is Phase 1 at the scale of the repository's
// benchmark (benchmark/fixture.go): the 25 000-point corpus, one pass after
// another over 1000 distinct log queries (no Zipf repeats), at the default
// β = 100/n (about 110 candidates) and at the wide fixture's β = 0.2 (about
// 5000). collisions/op is what the kernel counts per query and
// ref-collisions/op what the reference counts, which runs every level to its
// end: the difference is the work stopping at T1 saves.
func BenchmarkCandidates25000x150(b *testing.B) {
	ds := dataset.NUSWideLike(25000, 1)
	qs := dataset.GenLog(ds, dataset.LogConfig{PoolSize: 1000, Length: 1, ZipfS: 1.3, Perturb: 0.005, Seed: 2}).Pool
	for _, beta := range []float64{0, 0.2} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			ix := Build(ds, Params{Beta: beta})
			var counted, ref int
			sc := ix.newScratch()
			for _, q := range qs[:100] {
				ix.candidates(sc, nil, q, 10)
				for _, cell := range sc.cells {
					if cell>>ix.bits == sc.epoch {
						counted += int(cell & (1<<ix.bits - 1))
					}
				}
				_, n := referenceCandidates(ix, q, 10)
				ref += n
			}
			var dst []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = ix.CandidatesInto(dst, qs[i%len(qs)], 10).IDs
			}
			b.ReportMetric(float64(counted)/100, "collisions/op")
			b.ReportMetric(float64(ref)/100, "ref-collisions/op")
		})
	}
}
