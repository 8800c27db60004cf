// Benchmarks regenerating every table and figure of the paper (one target
// per exhibit) plus the ablation studies of DESIGN.md §5. Each benchmark
// runs the corresponding internal/bench experiment at the Quick scale;
// fixtures (datasets, indexes, workload profiles) are built once and shared.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured notes live in EXPERIMENTS.md; the same experiments can
// be run with readable output via `go run ./cmd/ebc-bench -all`.
package exploitbit_test

import (
	"io"
	"os"
	"sync"
	"testing"

	"exploitbit/internal/bench"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
	benchDir     string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if benchEnv != nil {
		benchEnv.Close()
	}
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		dir, err := os.MkdirTemp("", "exploitbit-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		benchDir = dir
		benchEnv = bench.NewEnv(bench.Quick, dir)
	})
	return benchEnv
}

func runExperiment(b *testing.B, id string) {
	env := sharedEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(io.Discard, env, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01_RefinementBottleneck(b *testing.B)   { runExperiment(b, "fig1") }
func BenchmarkFig02_QueryLogSkew(b *testing.B)           { runExperiment(b, "fig2") }
func BenchmarkFig06_HistogramEffectiveness(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig08_CachingPolicy(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig09_FileOrdering(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkTable3_HistogramCategories(b *testing.B)   { runExperiment(b, "tab3") }
func BenchmarkFig10_CVAvsHCD(b *testing.B)               { runExperiment(b, "fig10") }
func BenchmarkFig11_EarlyPruningPower(b *testing.B)      { runExperiment(b, "fig11") }
func BenchmarkFig12_CostModelAccuracy(b *testing.B)      { runExperiment(b, "fig12") }
func BenchmarkTable4_RefinementTimes(b *testing.B)       { runExperiment(b, "tab4") }
func BenchmarkFig13_CacheSize(b *testing.B)              { runExperiment(b, "fig13") }
func BenchmarkFig14_ResultSize(b *testing.B)             { runExperiment(b, "fig14") }
func BenchmarkFig15_CodeLength(b *testing.B)             { runExperiment(b, "fig15") }
func BenchmarkFig16_ExactIndexes(b *testing.B)           { runExperiment(b, "fig16") }
func BenchmarkAblation_Lemma3Cutoff(b *testing.B)        { runExperiment(b, "abl-lemma3") }
func BenchmarkAblation_PrefixSums(b *testing.B)          { runExperiment(b, "abl-upsilon") }
func BenchmarkAblation_TrueResultDetection(b *testing.B) { runExperiment(b, "abl-truehit") }
func BenchmarkAblation_BitPacking(b *testing.B)          { runExperiment(b, "abl-bitpack") }
func BenchmarkAblation_EagerFetch(b *testing.B)          { runExperiment(b, "abl-eagerfetch") }
func BenchmarkExtension_Maintenance(b *testing.B)        { runExperiment(b, "ext-maintain") }
