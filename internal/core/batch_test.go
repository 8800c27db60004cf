package core

import (
	"context"
	"testing"
)

// overlappingBatch builds a batch with deliberate candidate overlap: each
// test query appears twice (a duplicated burst is the extreme of qwLSH-style
// workload locality), so per-query refinement pays for the same pages twice
// while the coalesced batch pays once.
func overlappingBatch(qs [][]float32, n int) [][]float32 {
	var batch [][]float32
	for _, q := range qs {
		batch = append(batch, q, q)
		if len(batch) >= n {
			break
		}
	}
	return batch
}

// TestSearchBatchCoalescesAndMatchesPerQuery is the acceptance criterion: on
// an overlapping-candidate workload the coalesced batch performs strictly
// fewer page reads than the summed per-query searches, while returning
// identifier-for-identifier the same results as per-query SearchCtx. NoCache
// makes the I/O deterministic: every candidate carries vacuous bounds, so
// per-query refinement fetches every candidate individually.
func TestSearchBatchCoalescesAndMatchesPerQuery(t *testing.T) {
	w := buildWorld(t, 1500, 12, 31)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: NoCache})
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	batch := overlappingBatch(w.qtest, 8)

	// Per-query baseline first (NoCache holds no mutable state, so the order
	// of the two runs cannot influence results).
	soloIDs := make([][]int, len(batch))
	var soloReads int64
	for j, q := range batch {
		ids, st, err := eng.SearchCtx(context.Background(), q, k, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		soloIDs[j] = ids
		soloReads += st.PageReads
	}

	gotIDs, sts, err := eng.SearchBatch(context.Background(), batch, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != len(batch) || len(sts) != len(batch) {
		t.Fatalf("batch returned %d results / %d stats for %d queries", len(gotIDs), len(sts), len(batch))
	}
	var batchReads int64
	for _, st := range sts {
		batchReads += st.PageReads
	}
	if soloReads == 0 {
		t.Fatal("degenerate workload: per-query searches performed no reads")
	}
	if batchReads >= soloReads {
		t.Fatalf("coalesced batch read %d pages, per-query sum is %d — want strictly fewer", batchReads, soloReads)
	}
	for j := range batch {
		if len(gotIDs[j]) != len(soloIDs[j]) {
			t.Fatalf("query %d: batch returned %d ids, per-query %d", j, len(gotIDs[j]), len(soloIDs[j]))
		}
		for i := range soloIDs[j] {
			if gotIDs[j][i] != soloIDs[j][i] {
				t.Fatalf("query %d rank %d: batch id %d, per-query id %d", j, i, gotIDs[j][i], soloIDs[j][i])
			}
		}
	}
	t.Logf("coalesced batch: %d page reads vs %d per-query (%.1f%% saved)",
		batchReads, soloReads, 100*(1-float64(batchReads)/float64(soloReads)))
}

// TestSearchBatchMatchesPerQueryCachedMethods checks identifier identity for
// the cached methods, where Phase 2 prunes and declares true hits before
// refinement ever runs.
func TestSearchBatchMatchesPerQueryCachedMethods(t *testing.T) {
	w := buildWorld(t, 1500, 12, 32)
	k := 10
	for _, m := range []Method{HCO, Exact, IHCO, MHCR} {
		m := m
		t.Run(string(m), func(t *testing.T) {
			eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
				Method: m, CacheBytes: 64 << 10, Tau: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			batch := overlappingBatch(w.qtest, 10)
			soloIDs := make([][]int, len(batch))
			var soloReads int64
			for j, q := range batch {
				ids, st, err := eng.SearchCtx(context.Background(), q, k, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				soloIDs[j] = ids
				soloReads += st.PageReads
			}
			gotIDs, sts, err := eng.SearchBatch(context.Background(), batch, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			var batchReads int64
			for _, st := range sts {
				batchReads += st.PageReads
			}
			if batchReads > soloReads {
				t.Fatalf("batch read %d pages, per-query sum is %d", batchReads, soloReads)
			}
			for j := range batch {
				if len(gotIDs[j]) != len(soloIDs[j]) {
					t.Fatalf("query %d: %d ids, per-query %d", j, len(gotIDs[j]), len(soloIDs[j]))
				}
				for i := range soloIDs[j] {
					if gotIDs[j][i] != soloIDs[j][i] {
						t.Fatalf("query %d rank %d: batch id %d, per-query id %d", j, i, gotIDs[j][i], soloIDs[j][i])
					}
				}
			}
		})
	}
}

// TestMaintainerSearchBatch: the maintained batch answers match per-query
// searches through the same router, and every member is folded into the
// drift windows of the slots that served it.
func TestMaintainerSearchBatch(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		w := buildWorld(t, 1000, 10, 34)
		m, _ := newTestMaintainer(t, w.ds, w.pf, candFunc(w.ix), n, w.wl, 10, Config{
			Method: HCO, CacheBytes: 64 << 10, Tau: 6,
		}, MaintainOptions{})
		defer m.Close()

		batch := overlappingBatch(w.qtest, 6)
		gotIDs, sts, err := m.SearchBatch(context.Background(), batch, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotIDs) != len(batch) || len(sts) != len(batch) {
			t.Fatalf("batch shape: %d results / %d stats for %d queries", len(gotIDs), len(sts), len(batch))
		}
		for j, q := range batch {
			want, _, err := m.Sharded().Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(gotIDs[j], want) {
				t.Fatalf("query %d: ids %v, want %v", j, gotIDs[j], want)
			}
		}
		for s := 0; s < n; s++ {
			if got := len(m.window(s)); got != len(batch) {
				t.Fatalf("slot %d recorded %d of %d batch members", s, got, len(batch))
			}
		}
	})
}

// TestSearchBatchEdgeCases: empty batches are free; a canceled context
// aborts before any work.
func TestSearchBatchEdgeCases(t *testing.T) {
	w := buildWorld(t, 800, 8, 35)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 32 << 10, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ids, sts, err := eng.SearchBatch(context.Background(), nil, 5, nil); err != nil || ids != nil || sts != nil {
		t.Fatalf("empty batch: %v %v %v", ids, sts, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.SearchBatch(ctx, w.qtest[:2], 5, nil); err == nil {
		t.Fatal("canceled context not surfaced")
	}
}
