package bench

import (
	"fmt"
	"io"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
)

func init() {
	register("ext-maintain", "Extension: workload drift and automatic cache rebuild (Section 3.5)", extMaintain)
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
