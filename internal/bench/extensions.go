package bench

import (
	"fmt"
	"io"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
	"exploitbit/internal/vafile"
)

func init() {
	register("ext-vaplus", "Extension: VA+-file (KLT + non-uniform bits) vs plain VA-file", extVAPlus)
	register("ext-join", "Extension: cached kNN join (the paper's future work)", extJoin)
	register("ext-maintain", "Extension: workload drift and automatic cache rebuild (Section 3.5)", extMaintain)
}

func extVAPlus(w io.Writer, env *Env) error {
	// Moderate dimensionality so the O(d³) KLT stays cheap.
	s := env.Scale
	ds := exploitbit.Generate(exploitbit.DatasetConfig{
		Name: "aniso", N: s.NNusw, Dim: 48, Clusters: 20,
		Std: 0.05, Skew: 1.8, Ndom: 1024, Seed: 111, ValueCoherence: 0.7,
	})
	log := genLogFor(ds, s)
	wl, qtest := log.Split(s.QTest)
	_ = wl

	plain := vafile.Build(ds, vafile.Params{BitsPerDim: 4})
	plus, err := vafile.BuildPlus(ds, vafile.PlusParams{TotalBits: 4 * ds.Dim})
	if err != nil {
		return err
	}
	var nPlain, nPlus int
	for _, q := range qtest {
		nPlain += len(plain.Candidates(q, s.K).IDs)
		nPlus += len(plus.Candidates(q, s.K).IDs)
	}
	tw := table(w)
	fmt.Fprintln(tw, "index\tbits/point\tavg_candidates")
	fmt.Fprintf(tw, "VA-file (uniform 4b)\t%d\t%.1f\n", 4*ds.Dim, float64(nPlain)/float64(len(qtest)))
	fmt.Fprintf(tw, "VA+-file (KLT)\t%d\t%.1f\n", 4*ds.Dim, float64(nPlus)/float64(len(qtest)))
	bits := plus.Bits()
	fmt.Fprintf(tw, "# VA+ bit allocation (first 10 eigen-dims): %v\n", bits[:10])
	fmt.Fprintln(tw, "# expected shape: VA+ filters harder at equal bits — why the paper singles it out (and why KLT cost made them skip it)")
	return tw.Flush()
}

func extJoin(w io.Writer, env *Env) error {
	lab := env.Lab("NUS-WIDE")
	probes := lab.WL[:min(200, len(lab.WL))]
	tw := table(w)
	fmt.Fprintln(tw, "method\tprobes\tIO(points)\tsimIO+cpu(s)")
	for _, m := range []exploitbit.Method{exploitbit.NoCache, exploitbit.HCO} {
		eng, err := lab.Sys.Engine(m, lab.DefaultCS, lab.DefaultTau)
		if err != nil {
			return err
		}
		res, err := exploitbit.KNNJoin(eng, probes, env.Scale.K)
		if err != nil {
			return err
		}
		total := res.Stats.SimulatedIO + res.Stats.GenTime + res.Stats.ReduceTime + res.Stats.RefineTime
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\n", m, len(probes), res.Stats.Fetched, total.Seconds())
	}
	fmt.Fprintln(tw, "# expected shape: the cache absorbs the join's probe I/O almost entirely (probe set == workload)")
	return tw.Flush()
}

func extMaintain(w io.Writer, env *Env) error {
	lab := env.Lab("NUS-WIDE")
	// Train on the first half of the pool, then drift to fresh queries far
	// from the trained region by reusing test queries from another dataset
	// region: approximate drift by reversing the dataset order for probes.
	m, err := lab.Sys.Maintained(coreConfig(exploitbit.Exact, lab.DefaultCS, 0),
		exploitbit.MaintainOptions{WindowSize: 64, DegradeFactor: 0.85, MinQueriesBetweenRebuilds: 64})
	if err != nil {
		return err
	}
	run := func(qs [][]float32, n int) float64 {
		var hits, cands int64
		for i := 0; i < n; i++ {
			_, st, err := m.Search(qs[i%len(qs)], env.Scale.K)
			if err != nil {
				panic(err)
			}
			hits += int64(st.Hits)
			cands += int64(st.Candidates)
		}
		if cands == 0 {
			return 0
		}
		return float64(hits) / float64(cands)
	}
	// A drifted query population: 60 recurring queries the original
	// workload never issued (temporal locality persists — the popular
	// content changed, not the skew).
	drifted := make([][]float32, 60)
	for i := range drifted {
		drifted[i] = lab.DS.Point(lab.DS.Len() - 1 - (i*7)%lab.DS.Len())
	}
	// Rebuilds are launched in the background off the search path; wait for
	// the in-flight one to swap in before measuring the recovered ratio.
	waitIdle := func() {
		for m.Stats().RebuildInFlight {
			time.Sleep(time.Millisecond)
		}
	}
	tw := table(w)
	fmt.Fprintln(tw, "phase\thit_ratio\trebuilds")
	fmt.Fprintf(tw, "trained workload\t%.3f\t%d\n", run(lab.WL, 128), m.Stats().Rebuilds)
	driftRatio := run(drifted, 400)
	waitIdle()
	fmt.Fprintf(tw, "after drift\t%.3f\t%d\n", driftRatio, m.Stats().Rebuilds)
	fmt.Fprintf(tw, "post-rebuild\t%.3f\t%d\n", run(drifted, 128), m.Stats().Rebuilds)
	st := m.Stats()
	fmt.Fprintf(tw, "# rebuilds: %d completed, %d failed (searches never block on a rebuild)\n", st.Rebuilds, st.RebuildErrors)
	fmt.Fprintln(tw, "# expected shape: hit ratio collapses under drift, a rebuild fires, and the ratio recovers")
	return tw.Flush()
}

func coreConfig(m exploitbit.Method, cs int64, tau int) core.Config {
	return core.Config{Method: m, CacheBytes: cs, Tau: tau}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
