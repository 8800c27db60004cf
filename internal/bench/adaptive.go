package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
)

// AdaptiveReport records the adaptive-τ scenario (BENCH_6.json): a Zipf
// workload whose hot set collapses onto a handful of queries mid-run, served
// by a static-τ maintainer and by one with the Section 4 drift watchdog
// armed. Both see identical traffic and end with an equally fresh cache
// (the static engine is rebuilt from the same post-drift window), so the
// measured PageReads/C_refine gap is purely the retuned code length.
type AdaptiveReport struct {
	GeneratedAt string `json:"generated_at"`
	K           int    `json:"k"`
	BudgetBytes int64  `json:"budget_bytes"`
	InitialTau  int    `json:"initial_tau"`

	RetuneThreshold float64 `json:"retune_threshold"`
	RetuneWindows   int     `json:"retune_windows"`

	// Retunes is how many watchdog rebuilds the adaptive engine installed
	// during the drift phase (≥ 1 or the scenario errors out).
	Retunes int `json:"retunes"`

	// Improvement is the relative PageReads cut of the adaptive row over the
	// static row on the post-drift hot set.
	Improvement float64 `json:"page_reads_improvement"`

	Rows []AdaptiveRow `json:"rows"`
}

// AdaptiveRow is one engine's measured cost on the post-drift hot set.
type AdaptiveRow struct {
	Name         string  `json:"name"`
	Tau          int     `json:"tau"`
	Retunes      int     `json:"retunes"`
	AvgPageReads float64 `json:"avg_page_reads"`
	AvgRemaining float64 `json:"avg_remaining"` // measured C_refine
	RhoHit       float64 `json:"rho_hit"`
}

// RunAdaptive measures static-τ vs adaptive-τ refinement cost under a
// drifting Zipf workload and writes the report as indented JSON to jsonPath
// (skipped when empty), echoing a summary to w.
func RunAdaptive(w io.Writer, env *Env, jsonPath string) (*AdaptiveReport, error) {
	const k = 5
	const budget = int64(8 << 10)

	// The drift world: a broad, flat workload trains the system (every one of
	// 400 distinct queries equally likely — the capacity-bound regime where a
	// small τ wins); mid-run the traffic collapses onto a Zipf-skewed hot set
	// of 8 queries that fits the cache even at the domain's maximum useful τ.
	// That is the regime shift where re-tuning pays the most.
	ds := exploitbit.Generate(exploitbit.DatasetConfig{
		Name: "adaptive-drift", N: 3000, Dim: 12, Clusters: 10, Std: 0.03,
		Ndom: 256, Seed: 97, ValueCoherence: 0.7,
	})
	logA := exploitbit.GenLog(ds, exploitbit.LogConfig{
		PoolSize: 400, Length: 401, ZipfS: 1.05, Perturb: 0.005, Seed: 104,
	})
	logB := exploitbit.GenLog(ds, exploitbit.LogConfig{
		PoolSize: 8, Length: 256, ZipfS: 1.3, Perturb: 0.005, Seed: 205,
	})
	wlA := logA.Pool          // uniform pass over the distinct trained queries
	drifted := logB.Queries() // Zipf arrivals over the new hot set
	hot := logB.Pool

	sys, err := exploitbit.Open(ds, wlA, exploitbit.Options{Dir: env.Dir, Tio: env.Tio, WorkloadK: k})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	// Serve the model's own recommendation for the trained workload, so only
	// genuine drift — never a mistuned start — can justify a retune.
	initialTau := sys.OptimalTau(budget)
	cfg := core.Config{Method: exploitbit.HCO, CacheBytes: budget, Tau: initialTau}
	opt := exploitbit.MaintainOptions{WindowSize: 16, MinQueriesBetweenRebuilds: 16}
	aopt := opt
	aopt.AdaptiveTau = true
	aopt.RetuneThreshold = 0.10
	aopt.RetuneWindows = 2

	static, err := sys.Maintained(cfg, opt)
	if err != nil {
		return nil, err
	}
	defer static.Close()
	adaptive, err := sys.Maintained(cfg, aopt)
	if err != nil {
		return nil, err
	}
	defer adaptive.Close()

	feed := func(m *exploitbit.Maintainer, pool [][]float32, n int) error {
		for i := 0; i < n; i++ {
			if _, _, err := m.Search(pool[i%len(pool)], k); err != nil {
				return err
			}
		}
		return nil
	}

	// Phase A: both engines serve the trained workload.
	if err := feed(static, wlA, 64); err != nil {
		return nil, err
	}
	if err := feed(adaptive, wlA, 64); err != nil {
		return nil, err
	}

	// Phase B: the hot set shifts; drive the adaptive engine until the
	// watchdog's retune rebuild lands.
	deadline := time.Now().Add(60 * time.Second)
	for adaptive.Stats().Retunes == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: adaptive watchdog never retuned (stats %+v)", adaptive.Stats())
		}
		if err := feed(adaptive, drifted, 16); err != nil {
			return nil, err
		}
	}
	for adaptive.Stats().RebuildInFlight {
		time.Sleep(time.Millisecond)
	}

	// The static engine gets the same drifted traffic and an equally fresh
	// cache from its own (pure hot-set) window — at the frozen τ.
	if err := feed(static, drifted, 200); err != nil {
		return nil, err
	}
	for static.Stats().RebuildInFlight {
		time.Sleep(time.Millisecond)
	}
	if err := static.ForceShardRebuild(0); err != nil {
		return nil, err
	}

	measure := func(name string, m *exploitbit.Maintainer) (AdaptiveRow, error) {
		eng := m.Engine()
		var agg core.Aggregate
		for i := 0; i < 64; i++ {
			_, st, err := eng.Search(hot[i%len(hot)], k)
			if err != nil {
				return AdaptiveRow{}, err
			}
			agg.Add(st)
		}
		return AdaptiveRow{
			Name:         name,
			Tau:          m.Stats().Tau,
			Retunes:      m.Stats().Retunes,
			AvgPageReads: agg.AvgPageReads(),
			AvgRemaining: agg.AvgRemaining(),
			RhoHit:       agg.HitRatio(),
		}, nil
	}

	rep := &AdaptiveReport{
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		K:               k,
		BudgetBytes:     budget,
		InitialTau:      initialTau,
		RetuneThreshold: aopt.RetuneThreshold,
		RetuneWindows:   aopt.RetuneWindows,
		Retunes:         adaptive.Stats().Retunes,
	}
	for _, e := range []struct {
		name string
		m    *exploitbit.Maintainer
	}{{"static", static}, {"adaptive", adaptive}} {
		row, err := measure(e.name, e.m)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(w, "adaptive: %-8s τ=%d retunes=%d  %7.1f pages/q  %7.1f C_refine  ρ_hit=%.2f\n",
			row.Name, row.Tau, row.Retunes, row.AvgPageReads, row.AvgRemaining, row.RhoHit)
	}
	if s := rep.Rows[0].AvgPageReads; s > 0 {
		rep.Improvement = (s - rep.Rows[1].AvgPageReads) / s
	}
	fmt.Fprintf(w, "adaptive: retune cut PageReads by %.0f%% on the drifted hot set\n", rep.Improvement*100)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return nil, err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "adaptive: report written to %s\n", jsonPath)
	}
	return rep, nil
}
