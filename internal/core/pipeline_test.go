package core

import (
	"context"
	"fmt"
	"testing"

	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/shard"
)

// rowSearcher is what the scorer-seam suites drive on both scorers.
type rowSearcher interface {
	SearchInto(q []float32, k int, dst []int) ([]int, QueryStats, error)
	SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *Merge) ([]int, QueryStats, error)
	SearchBatch(ctx context.Context, qs [][]float32, k int, mg *Merge) ([][]int, []QueryStats, error)
}

// servingRows serves one dataset, profile and candidate generator three
// ways: through the flat scorer (rows[0], the reference) and through the
// scatter-gather scorer at N = 1 (SingleShard over the same file — what every
// maintained and live deployment runs) and N = 3 (a round-robin partition).
func servingRows(t *testing.T, ds *dataset.Dataset, pf *disk.PointFile, prof *Profile, cands CandidateFunc, cfg Config) (names []string, rows []rowSearcher) {
	t.Helper()
	flat, err := NewEngine(pf, prof, cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, rows = []string{"flat"}, []rowSearcher{flat}
	for _, n := range []int{1, 3} {
		specs, owner, local := SingleShard(pf, ds)
		if n > 1 {
			specs, owner, local = shardSpecs(t, ds, n, shard.RoundRobin)
		}
		se, err := NewShardedEngine(specs, owner, local, prof, cands, cfg)
		if err != nil {
			t.Fatal(err)
		}
		names, rows = append(names, fmt.Sprintf("router-%d", n)), append(rows, se)
	}
	return names, rows
}

// TestShardedReduceWorkersReportWhatRan pins QueryStats.ReduceWorkers on the
// router to its meaning — goroutines used by Phase 2 — instead of the number
// of engaged shards: a 1-unit router whose unit fanned out reports that
// fan-out (not 1), shards scored one after another on the caller report 1
// (not the shard count), and shards scored concurrently add up.
func TestShardedReduceWorkersReportWhatRan(t *testing.T) {
	forceParallelism(t)
	w := buildWorld(t, 2500, 8, 31)
	k := 10

	t.Run("one unit fans out", func(t *testing.T) {
		_, rows := servingRows(t, w.ds, w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6, parallelReduceThreshold: 1})
		fanned := false
		for qi, q := range w.qtest {
			_, want, err := rows[0].SearchInto(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := rows[1].SearchInto(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.ReduceWorkers != want.ReduceWorkers {
				t.Fatalf("q%d: 1-unit router reports %d reduce workers, its flat twin %d", qi, got.ReduceWorkers, want.ReduceWorkers)
			}
			fanned = fanned || want.ReduceWorkers > 1
		}
		if !fanned {
			t.Fatal("no query crossed the forced parallel-reduce threshold")
		}
		flatAgg := rows[0].(*Engine).Aggregate()
		if got := rows[1].(*ShardedEngine).Aggregate().ParallelQueries; got != flatAgg.ParallelQueries {
			t.Fatalf("1-unit router counts %d parallel queries, its flat twin %d", got, flatAgg.ParallelQueries)
		}
	})

	t.Run("sequential shards", func(t *testing.T) {
		_, rows := servingRows(t, w.ds, w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6})
		spread := false
		for qi, q := range w.qtest {
			_, st, err := rows[2].SearchInto(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Candidates >= shardFanThreshold {
				t.Fatalf("q%d: %d candidates reach the shard fan-out threshold; the fixture is too wide", qi, st.Candidates)
			}
			if st.ReduceWorkers != 1 {
				t.Fatalf("q%d: %d candidates scored shard after shard on the caller report %d reduce workers, want 1", qi, st.Candidates, st.ReduceWorkers)
			}
			spread = spread || st.Candidates >= 3
		}
		if !spread {
			t.Fatal("no query had candidates to spread over the shards")
		}
		if got := rows[2].(*ShardedEngine).Aggregate().ParallelQueries; got != 0 {
			t.Fatalf("sequentially scored router counts %d parallel queries", got)
		}
	})

	t.Run("concurrent shards", func(t *testing.T) {
		// wide_sharded's shape: every point a candidate (≥ shardFanThreshold),
		// two shards engaged, each below the per-engine parallel threshold.
		ids := allIDs(w.ds.Len())
		all := func(dst []int, _ []float32, _ int) ([]int, float64) { return append(dst[:0], ids...), 1 }
		specs, owner, local := buildShardSpecs(t, w, 2, shard.RoundRobin)
		se, err := NewShardedEngine(specs, owner, local, w.prof, all, Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := se.SearchInto(w.qtest[0], k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.ReduceWorkers != 2 {
			t.Fatalf("two shards scored concurrently report %d reduce workers, want 2", st.ReduceWorkers)
		}
	})
}

// TestSearchIntoAllocs pins the allocation contract of the steady-state serve
// path: with every candidate cached and a reused result buffer, SearchInto on
// the flat engine allocates nothing, and the scatter-gather scorer — below
// shardFanThreshold, where it starts no goroutine — allocates no more than
// that at N = 1 and N = 3: the pooled scratch absorbs the candidate ids, the
// scatter lists, the engine snapshot and the per-shard statistics. It holds
// with a stub generator and with Phase 1 for real (the C2LSH index counting
// collisions on its own pooled scratch).
func TestSearchIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	w := buildWorld(t, 2000, 16, 77)
	q := w.qtest[0]
	ids, dmax := candFunc(w.ix)(nil, q, 10)
	if len(ids) >= shardFanThreshold {
		t.Fatalf("%d candidates reach the shard fan-out threshold", len(ids))
	}
	static := func(dst []int, _ []float32, _ int) ([]int, float64) { return append(dst[:0], ids...), dmax }
	for gen, cands := range map[string]CandidateFunc{"stub": static, "lsh": candFunc(w.ix)} {
		// C-VA within budget caches the whole dataset: all hits.
		names, rows := servingRows(t, w.ds, w.pf, w.prof, cands, Config{Method: CVA, CacheBytes: 1 << 30, parallelReduceThreshold: -1})
		dst := make([]int, 0, 64)
		for i, s := range rows {
			allocs := testing.AllocsPerRun(100, func() {
				var err error
				if dst, _, err = s.SearchInto(q, 10, dst[:0]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, %s candidates: %v allocs per SearchInto, want 0", names[i], gen, allocs)
			}
		}
	}
}
