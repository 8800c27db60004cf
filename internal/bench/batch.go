package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
)

// BatchReport is the machine-readable record of the batch-search scenario
// (BENCH_3.json): for a correlated burst of queries, the refinement I/O of
// per-query searches vs one coalesced batch, per caching method. Coalescing
// reads each data-file page at most once for the whole batch, so
// batch_page_reads ≤ solo_page_reads always, with the gap widening as the
// burst's candidates overlap — exactly the qwLSH-style locality a cached
// deployment sees.
type BatchReport struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Lab         string `json:"lab"`
	BatchSize   int    `json:"batch_size"`
	K           int    `json:"k"`

	Rows []BatchRow `json:"rows"`
}

// BatchRow compares one method's per-query and batched executions of the
// same burst. ResultsIdentical asserts the batch's contract: every query's
// identifiers match a standalone search.
type BatchRow struct {
	Method           string  `json:"method"`
	SoloPageReads    int64   `json:"solo_page_reads"`
	BatchPageReads   int64   `json:"batch_page_reads"`
	IOSavedPct       float64 `json:"io_saved_pct"`
	SoloWallNs       int64   `json:"solo_wall_ns"`
	BatchWallNs      int64   `json:"batch_wall_ns"`
	ResultsIdentical bool    `json:"results_identical"`
}

// correlatedBurst builds a batch with deliberate candidate overlap: each
// test query appears twice in a row, the extreme of the bursty locality that
// Zipf-distributed logs produce.
func correlatedBurst(qtest [][]float32, n int) [][]float32 {
	var batch [][]float32
	for _, q := range qtest {
		batch = append(batch, q, q)
		if len(batch) >= n {
			return batch[:n]
		}
	}
	return batch
}

// RunBatch measures the cross-query I/O coalescing of SearchBatch on the
// NUS-WIDE lab and writes the report as indented JSON to jsonPath (skipped
// when empty), echoing a summary table to w.
func RunBatch(w io.Writer, env *Env, jsonPath string) (*BatchReport, error) {
	lab := env.Lab("NUS-WIDE")
	k := env.Scale.K
	batch := correlatedBurst(lab.QTest, 16)
	rep := &BatchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Lab:         lab.Name,
		BatchSize:   len(batch),
		K:           k,
	}

	// NO-CACHE refines every candidate (maximum I/O, maximum overlap to
	// coalesce); the cached methods prune most of it in Phase 2 first, so
	// their rows show coalescing on the residue the cache cannot answer.
	type cfg struct {
		name string
		conf core.Config
	}
	cfgs := []cfg{
		{"NO-CACHE", core.Config{Method: exploitbit.NoCache}},
		{"EXACT", core.Config{Method: exploitbit.Exact, CacheBytes: lab.DefaultCS}},
		{"HC-O", core.Config{Method: exploitbit.HCO, CacheBytes: lab.DefaultCS, Tau: lab.DefaultTau}},
		{"IHC-O", core.Config{Method: exploitbit.IHCO, CacheBytes: lab.DefaultCS, Tau: lab.DefaultTau}},
	}

	tw := table(w)
	fmt.Fprintln(tw, "method\tsolo_reads\tbatch_reads\tsaved%\tidentical")
	for _, c := range cfgs {
		eng, err := lab.Sys.EngineWith(c.conf)
		if err != nil {
			return nil, err
		}
		row := BatchRow{Method: c.name, ResultsIdentical: true}

		soloIDs := make([][]int, len(batch))
		t0 := time.Now()
		for j, q := range batch {
			ids, st, err := eng.Search(q, k)
			if err != nil {
				return nil, err
			}
			soloIDs[j] = ids
			row.SoloPageReads += st.PageReads
		}
		row.SoloWallNs = time.Since(t0).Nanoseconds()

		t1 := time.Now()
		gotIDs, sts, err := eng.SearchBatch(context.Background(), batch, k, nil)
		if err != nil {
			return nil, err
		}
		row.BatchWallNs = time.Since(t1).Nanoseconds()
		for _, st := range sts {
			row.BatchPageReads += st.PageReads
		}
		for j := range batch {
			if len(gotIDs[j]) != len(soloIDs[j]) {
				row.ResultsIdentical = false
				break
			}
			for i := range soloIDs[j] {
				if gotIDs[j][i] != soloIDs[j][i] {
					row.ResultsIdentical = false
					break
				}
			}
		}
		if row.SoloPageReads > 0 {
			row.IOSavedPct = 100 * (1 - float64(row.BatchPageReads)/float64(row.SoloPageReads))
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%v\n",
			row.Method, row.SoloPageReads, row.BatchPageReads, row.IOSavedPct, row.ResultsIdentical)
	}
	tw.Flush()

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
		fmt.Fprintf(w, "batch: report written to %s\n", jsonPath)
	}
	return rep, nil
}
