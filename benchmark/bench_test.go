package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// metricName is the alphabet the driver allows for a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smokeConfig is the benchmark at a fiftieth of its op counts on a small
// corpus: every code path runs, nothing is measured for real.
func smokeConfig(t *testing.T, seed int64) *config {
	return &config{n: 2000, seed: seed, seconds: 0.12, scale: 50, dir: t.TempDir()}
}

func value(t *testing.T, rec *runRecord, name string) float64 {
	t.Helper()
	m, ok := rec.Metrics[name]
	if !ok {
		t.Fatalf("%s: metric %s missing", rec.Workload, name)
	}
	return m.Value
}

// TestSmoke runs all six workloads untraced and traced (probe included) and
// checks the contract between the program and BENCHMARK.json: runOne itself
// refuses a missing or an undeclared metric, so a run that returns has
// emitted each declared name exactly once.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(man.Workloads), len(workloads))
	}
	for _, decls := range [][]metricDecl{man.EndToEnd, man.PerLayer} {
		for _, d := range decls {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
			}
		}
	}

	for _, w := range man.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			t.Fatalf("workload %q is in BENCHMARK.json but not in the program", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t, 1)
			untraced, err := runOne(man, def, cfg, false, "")
			if err != nil {
				t.Fatal(err)
			}
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			traced, err := runOne(man, def, cfg, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*runRecord{untraced, traced} {
				if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
					t.Errorf("trace=%d: correct=%v attempted=%d failed=%d (%s)", rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.Error)
				}
			}
			if !def.writes {
				// Every page the device served was charged to a query.
				if u := value(t, traced, "disk.unaccounted_reads"); u != 0 {
					t.Errorf("%v page reads not charged to any query", u)
				}
			}
			if r := value(t, traced, "bench.reconcile_ratio"); r <= 0 || r > 1 {
				t.Errorf("bench.reconcile_ratio = %v, want in (0, 1]", r)
			}
			if def.sharded && value(t, traced, "shard.identical_ratio") != 1 {
				t.Errorf("sharded results differ from the flat twin")
			}
			if def.writes && value(t, traced, "ingest.compactions") < 1 {
				t.Errorf("no compaction ran beside the searches")
			}
			checkSpans(t, spans, def)

			if def.clients > 1 {
				return
			}
			// One client and a static cache: the same seed reads the same pages.
			again, err := runOne(man, def, smokeConfig(t, 1), false, "")
			if err != nil {
				t.Fatal(err)
			}
			if a, b := value(t, untraced, "page_reads_per_query"), value(t, again, "page_reads_per_query"); a != b || a == 0 {
				t.Errorf("page_reads_per_query %v then %v with the same seed", a, b)
			}
		})
	}
}

// checkSpans reads the trace back: every span names a known layer, non-root
// spans have their parent in the file and lie inside it.
func checkSpans(t *testing.T, path string, def *workloadDef) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]span{}
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	if len(all) == 0 {
		t.Fatal("empty trace")
	}
	seen := map[string]bool{}
	for _, s := range all {
		seen[s.Name] = true
		if !slices.Contains(spanNames, s.Name) {
			t.Fatalf("unknown span %q", s.Name)
		}
		if s.Name == spanOp {
			if s.Parent != 0 || s.Workload != def.name {
				t.Fatalf("bad root span %+v", s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op {
			t.Fatalf("span %+v has no parent in its operation", s)
		}
		if s.Start < p.Start || s.End < s.Start {
			t.Fatalf("span %+v starts before its parent %+v", s, p)
		}
	}
	want := []string{spanOp, spanEngine, spanGen, spanReduce, spanRefine}
	if def.kind == fixLive {
		want = []string{spanOp, spanRoundtrip, spanHandler, spanGen, spanReduce, spanRefine}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("no %s span in the trace", name)
		}
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	ds, pool, _, test := corpus(500)
	def := findWorkload("flat_cpu")
	lap := func(seed int64) []int {
		fx := &fixture{def: def, cfg: &config{seed: seed, scale: 1}, ds: ds, pool: pool, test: test}
		return fx.stream()
	}
	a, b, c := lap(1), lap(1), lap(2)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if slices.Equal(a, c) {
		t.Error("two seeds gave the same schedule")
	}
	slices.Sort(a)
	slices.Sort(c)
	if !slices.Equal(a, c) {
		t.Error("two seeds replay different queries; only the order may differ")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfShares(t *testing.T) {
	// op [0,100] > engine [10,90] > gen [10,40], reduce [40,50]: engine's self
	// time is 80-40, op's is 20.
	spans := []span{
		{Name: spanOp, ID: 8, Start: 0, End: 100},
		{Name: spanEngine, ID: 9, Parent: 8, Start: 10, End: 90},
		{Name: spanGen, ID: 10, Parent: 9, Start: 10, End: 40},
		{Name: spanReduce, ID: 11, Parent: 9, Start: 40, End: 50},
	}
	got := selfShares(spans)
	want := map[string]float64{spanOp: 0.2, spanEngine: 0.4, spanGen: 0.3, spanReduce: 0.1}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self share of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	write := func(workload, metric string, v float64, failed, attempted int) string {
		rep := report{}
		for i := 0; i < 3; i++ {
			rec := &runRecord{Workload: workload}
			rec.Failed, rec.Attempted = failed, attempted
			if metric != "page_reads_per_query" { // a count: repeats exactly
				v *= 1.001
			}
			rec.Metrics = map[string]metricValue{metric: {Value: v}}
			rep.Runs = append(rep.Runs, rec)
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "report.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct {
		why               string
		workload, metric  string
		new               float64
		failed, attempted int
		worse             bool
	}{
		{"1 % slower is within the bound", "flat_cpu", "search_p50_ms", 1.01, 0, 1000, false},
		{"50 % slower is worse", "flat_cpu", "search_p50_ms", 1.5, 0, 1000, true},
		{"page reads are exact with one client", "flat_io", "page_reads_per_query", 1.02, 0, 1000, true},
		{"page reads have 5 % with two clients", "http_search", "page_reads_per_query", 1.02, 0, 1000, false},
		{"7 % more page reads over HTTP is worse", "http_search", "page_reads_per_query", 1.07, 0, 1000, true},
		{"the same error rate over more operations is the same", "http_live", "search_p50_ms", 1, 2, 2000, false},
		{"a higher error rate is worse", "http_live", "search_p50_ms", 1, 2, 1000, true},
	} {
		base := write(c.workload, c.metric, 1, c.failed/2, 1000)
		err := compareReports(io.Discard, man, base, write(c.workload, c.metric, c.new, c.failed, c.attempted))
		if (err != nil) != c.worse {
			t.Errorf("%s: compare returned %v", c.why, err)
		}
	}
}
