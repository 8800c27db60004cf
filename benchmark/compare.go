package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), which
// is what the acceptance rule for this benchmark is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// series groups a report's values by workload, mode and metric.
type series map[string]map[int]map[string][]float64

// series also returns each workload's error rate: failed operations over
// attempted ones, summed over its runs (a time-boxed run attempts as many as
// fit, so the counts themselves do not compare).
func (r *report) series() (series, map[string]float64) {
	s := make(series)
	failed, attempted := make(map[string]float64), make(map[string]float64)
	for _, run := range r.Runs {
		if s[run.Workload] == nil {
			s[run.Workload] = map[int]map[string][]float64{0: {}, 1: {}}
		}
		for name, m := range run.Metrics {
			s[run.Workload][run.Trace][name] = append(s[run.Workload][run.Trace][name], m.Value)
		}
		failed[run.Workload] += float64(run.Failed)
		attempted[run.Workload] += float64(run.Attempted)
	}
	for name := range failed {
		failed[name] = ratio(failed[name], attempted[name])
	}
	return s, failed
}

// printSummary prints every metric of every workload by name with its unit:
// the median of the runs, and the quartiles when there are several.
func printSummary(w io.Writer, man *manifest, rep *report) {
	s, errorRate := rep.series()
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range man.Workloads {
		modes, ok := s[wl.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "\n%s\terror rate: %g\n", wl.Name, errorRate[wl.Name])
		for trace, decls := range [][]metricDecl{man.EndToEnd, man.PerLayer} {
			for _, d := range decls {
				vals := modes[trace][d.Name]
				if len(vals) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(vals)
				fmt.Fprintf(tw, "  %s\t%.6g\t%s", d.Name, q2, d.Unit)
				if len(vals) > 1 {
					fmt.Fprintf(tw, "\t[%.6g .. %.6g] over %d runs", q1, q3, len(vals))
				}
				fmt.Fprintln(tw)
			}
		}
	}
	tw.Flush()
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareBound is the bound -compare holds a metric to on one workload. It is
// the manifest's, except for page_reads_per_query: the manifest has one bound
// per metric, but with one client and whole laps the count repeats exactly, so
// any change there is a change; the two-client workloads stop on time and get
// 5 %.
func compareBound(def *workloadDef, d metricDecl) float64 {
	if d.Name != "page_reads_per_query" || def == nil {
		return d.Bound
	}
	if def.clients == 1 {
		return 0
	}
	return 0.05
}

// compareReports prints one row per (workload, end-to-end metric) with both
// medians, the ratio with its base, and a verdict under the bounds of
// BENCHMARK.json: worse when the new median is worse than the old by more than
// the bound, better when it is better by more than the bound, unresolved when
// either side's own quartile spread is wider than the bound, same otherwise.
// It fails on any worse row and on any workload with a higher error rate.
func compareReports(out io.Writer, man *manifest, oldPath, newPath string) error {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return err
	}
	olds, oldErrors := oldRep.series()
	news, newErrors := newRep.series()

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tnew/old\tbound\tverdict")
	bad := 0
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			a, b := olds[wl.Name][0][d.Name], news[wl.Name][0][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			bound := compareBound(findWorkload(wl.Name), d)
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			r := ratio(bm, am)
			worse, better := r > 1+bound, r < 1-bound
			if d.Better == "higher" {
				worse, better = better, worse
			}
			verdict := "same"
			switch {
			case ratio(a3-a1, am) > bound || ratio(b3-b1, bm) > bound:
				verdict = "unresolved"
			case worse:
				verdict = "worse"
				bad++
			case better:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g\t%.0f%%\t%s\n",
				wl.Name, d.Name, am, d.Unit, bm, d.Unit, r, am, bound*100, verdict)
		}
		if newErrors[wl.Name] > oldErrors[wl.Name] {
			fmt.Fprintf(tw, "%s\terror_rate\t%g\t%g\t\t0%%\tworse\n", wl.Name, oldErrors[wl.Name], newErrors[wl.Name])
			bad++
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d row(s) worse", bad)
	}
	return nil
}
