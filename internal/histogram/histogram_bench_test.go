package histogram

import (
	"math/rand"
	"testing"
)

func benchFreq(ndom int, hot float64) []float64 {
	rng := rand.New(rand.NewSource(1))
	f := make([]float64, ndom)
	for i := range f {
		f[i] = rng.Float64()
		// Concentrate some mass to resemble a workload F'.
		if rng.Float64() < 0.05 {
			f[i] += hot * rng.Float64()
		}
	}
	return f
}

// BenchmarkKNNOptimal is the full Algorithm 2 run at the library defaults
// (Ndom=1024, B=256) — the offline cost that Table 3 reports.
func BenchmarkKNNOptimal1024x256(b *testing.B) { benchKNNOptimal(b, 256, KNNOptimalOptions{}) }

// BenchmarkKNNOptimal1024x512 is τ = 9: 511 rows of the full scan.
func BenchmarkKNNOptimal1024x512(b *testing.B) { benchKNNOptimal(b, 512, KNNOptimalOptions{}) }

// BenchmarkKNNOptimal1024x1024 is τ = 10, B = Ndom: the all-singletons
// partition, which costs one pass over the domain.
func BenchmarkKNNOptimal1024x1024(b *testing.B) { benchKNNOptimal(b, 1024, KNNOptimalOptions{}) }

func benchKNNOptimal(b *testing.B, buckets int, opt KNNOptimalOptions) {
	f := benchFreq(1024, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KNNOptimalWith(f, buckets, opt)
	}
}

func BenchmarkKNNOptimalNoCutoff1024x256(b *testing.B) {
	f := benchFreq(1024, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KNNOptimalWith(f, 256, KNNOptimalOptions{DisableCutoff: true})
	}
}

func BenchmarkVOptimal1024x256(b *testing.B) {
	f := benchFreq(1024, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VOptimal(f, 256)
	}
}

func BenchmarkEquiDepth1024x256(b *testing.B) {
	f := benchFreq(1024, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EquiDepth(f, 256)
	}
}

func BenchmarkBucketLookup(b *testing.B) {
	h := EquiDepth(benchFreq(1024, 100), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Bucket(i & 1023)
	}
}
