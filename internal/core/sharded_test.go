package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/lsh"
	"exploitbit/internal/shard"
	"exploitbit/internal/vec"
)

// checkKNN asserts ids are exactly the k nearest candidates of q by
// distance (the Algorithm 1 contract, indifferent to tie order).
func checkKNN(t *testing.T, w *world, q []float32, ids []int, k int) {
	t.Helper()
	cids, _ := candFunc(w.ix)(nil, q, k)
	want := knnOfCandidates(w.ds, q, cids, k)
	if len(ids) != len(want) {
		t.Fatalf("%d results, want %d", len(ids), len(want))
	}
	got := make([]float64, len(ids))
	for i, id := range ids {
		got[i] = vec.Dist(q, w.ds.Point(id))
	}
	sort.Float64s(got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: dist %v, want %v", i, got[i], want[i])
		}
	}
}

// buildTieWorld is buildWorld over a dataset whose last eighth duplicates
// early points, so k-th-distance ties — the case where candidate *order*
// decides the result set — are common.
func buildTieWorld(t testing.TB, n, dim int, seed int64) *world {
	t.Helper()
	base := dataset.Generate(dataset.Config{Name: "tie", N: n, Dim: dim, Clusters: 5, Std: 0.05, Ndom: 256, Seed: seed})
	data := make([]float32, 0, n*dim)
	for i := 0; i < n; i++ {
		src := i
		if i >= n-n/8 {
			src = i % (n / 8)
		}
		data = append(data, base.Point(src)...)
	}
	ds := dataset.New("tie", dim, data, base.Domain)
	pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), "pf"), ds, nil, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	ix := lsh.Build(ds, lsh.Params{Seed: seed + 1, MaxM: 48})
	log := dataset.GenLog(ds, dataset.LogConfig{PoolSize: 60, Length: 400, ZipfS: 1.4, Perturb: 0.005, Seed: seed + 2})
	wl, qtest := log.Split(16)
	prof := BuildProfile(ds, candFunc(ix), wl, 10)
	return &world{ds: ds, pf: pf, ix: ix, prof: prof, wl: wl, qtest: qtest}
}

// buildShardSpecs partitions the world's dataset; see shardSpecs.
func buildShardSpecs(t testing.TB, w *world, n int, layout shard.Layout) ([]ShardSpec, []int32, []int32) {
	t.Helper()
	return shardSpecs(t, w.ds, n, layout)
}

// shardSpecs partitions ds and materializes one point file per shard (4 KiB
// pages and zero Tio, like the test worlds' own files).
func shardSpecs(t testing.TB, ds *dataset.Dataset, n int, layout shard.Layout) ([]ShardSpec, []int32, []int32) {
	t.Helper()
	p, err := shard.Build(ds, n, layout, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specs := make([]ShardSpec, 0, p.N)
	for s := 0; s < p.N; s++ {
		sds := p.SubDataset(ds, s)
		pf, err := disk.BuildPointFile(filepath.Join(dir, fmt.Sprintf("pf%d", s)), sds, nil, 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pf.Close() })
		specs = append(specs, ShardSpec{PF: pf, DS: sds, GlobalIDs: p.Shards[s]})
	}
	return specs, p.Owner, p.Local
}

// diffStats reports the first mismatching field between the unsharded and
// sharded execution of one query, or "".
func diffStats(a, b QueryStats) string {
	switch {
	case a.Candidates != b.Candidates:
		return fmt.Sprintf("Candidates %d != %d", a.Candidates, b.Candidates)
	case a.Hits != b.Hits:
		return fmt.Sprintf("Hits %d != %d", a.Hits, b.Hits)
	case a.Pruned != b.Pruned:
		return fmt.Sprintf("Pruned %d != %d", a.Pruned, b.Pruned)
	case a.TrueHits != b.TrueHits:
		return fmt.Sprintf("TrueHits %d != %d", a.TrueHits, b.TrueHits)
	case a.Remaining != b.Remaining:
		return fmt.Sprintf("Remaining %d != %d", a.Remaining, b.Remaining)
	case a.Fetched != b.Fetched:
		return fmt.Sprintf("Fetched %d != %d", a.Fetched, b.Fetched)
	case a.PageReads != b.PageReads:
		return fmt.Sprintf("PageReads %d != %d", a.PageReads, b.PageReads)
	case a.UsedLUT != b.UsedLUT:
		return fmt.Sprintf("UsedLUT %v != %v", a.UsedLUT, b.UsedLUT)
	}
	return ""
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedSearchBitIdentical is the tentpole's contract: for every shard
// count, layout and cache method, the scatter-gather engine returns the same
// ids in the same order with the same Pruned/TrueHits/Remaining partition
// and the same I/O charge as the monolithic engine — on a tie-heavy dataset
// where any ordering slip would surface.
func TestShardedSearchBitIdentical(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 3)
	cfgOf := func(m Method) Config { return Config{Method: m, CacheBytes: 64 << 10, Tau: 6} }
	methods := []Method{HCO, HCW, Exact, MHCR}

	for _, m := range methods {
		ref, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfgOf(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []shard.Layout{shard.RoundRobin, shard.Clustered} {
			for _, n := range []int{1, 2, 3, 7} {
				specs, owner, local := buildShardSpecs(t, w, n, layout)
				se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfgOf(m))
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", m, layout, n, err)
				}
				for _, k := range []int{1, 10} {
					for qi, q := range w.qtest {
						wantIDs, wantSt, err := ref.SearchCtx(context.Background(), q, k, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						gotIDs, gotSt, err := se.SearchCtx(context.Background(), q, k, nil, nil)
						if err != nil {
							t.Fatalf("%s/%s/%d shards, q%d k%d: %v", m, layout, n, qi, k, err)
						}
						if !sameIDs(wantIDs, gotIDs) {
							t.Fatalf("%s/%s/%d shards, q%d k%d: ids %v != %v", m, layout, n, qi, k, gotIDs, wantIDs)
						}
						if d := diffStats(wantSt, gotSt); d != "" {
							t.Fatalf("%s/%s/%d shards, q%d k%d: %s", m, layout, n, qi, k, d)
						}
					}
				}
			}
		}
	}
}

// TestShardedBatchBitIdentical pins the batch path: one cross-query
// coalesced refinement over (shard, unit) ids must read the same pages and
// return the same results as the unsharded batch. The merged batch is held
// to the same contract in merge_test.go (batchRows).
func TestShardedBatchBitIdentical(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 4)
	cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
	ref, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	for _, layout := range []shard.Layout{shard.RoundRobin, shard.Clustered} {
		for _, n := range []int{1, 2, 3, 7} {
			specs, owner, local := buildShardSpecs(t, w, n, layout)
			se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, wantSts, err := ref.SearchBatch(context.Background(), w.qtest, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs, gotSts, err := se.SearchBatch(context.Background(), w.qtest, k, nil)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", layout, n, err)
			}
			var wantPages, gotPages int64
			for j := range w.qtest {
				if !sameIDs(wantIDs[j], gotIDs[j]) {
					t.Fatalf("%s/%d shards, q%d: ids %v != %v", layout, n, j, gotIDs[j], wantIDs[j])
				}
				if d := diffStats(wantSts[j], gotSts[j]); d != "" {
					t.Fatalf("%s/%d shards, q%d: %s", layout, n, j, d)
				}
				wantPages += wantSts[j].PageReads
				gotPages += gotSts[j].PageReads
			}
			if wantPages != gotPages {
				t.Fatalf("%s/%d shards: ΣPageReads %d != %d", layout, n, gotPages, wantPages)
			}
		}
	}
}

// TestShardedAggregatesAttribution checks that per-shard statistic blocks
// partition the global aggregate: candidate, hit and fetch totals across
// shards equal the router's own accounting.
func TestShardedAggregatesAttribution(t *testing.T) {
	w := buildWorld(t, 1100, 16, 5)
	specs, owner, local := buildShardSpecs(t, w, 3, shard.RoundRobin)
	se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.qtest {
		if _, _, err := se.Search(q, 10); err != nil {
			t.Fatal(err)
		}
	}
	g := se.Aggregate()
	var sumCands, sumHits, sumFetched, sumPages, sumPruned, sumTrue, sumRem int64
	for _, sa := range se.ShardAggregates() {
		sumCands += sa.Agg.Candidates
		sumHits += sa.Agg.Hits
		sumFetched += sa.Agg.Fetched
		sumPages += sa.Agg.PageReads
		sumPruned += sa.Agg.Pruned
		sumTrue += sa.Agg.TrueHits
		sumRem += sa.Agg.Remaining
	}
	if sumCands != g.Candidates || sumHits != g.Hits || sumFetched != g.Fetched || sumPages != g.PageReads {
		t.Fatalf("shard sums (cands %d hits %d fetched %d pages %d) != global (%d %d %d %d)",
			sumCands, sumHits, sumFetched, sumPages, g.Candidates, g.Hits, g.Fetched, g.PageReads)
	}
	if sumPruned != g.Pruned || sumTrue != g.TrueHits || sumRem != g.Remaining {
		t.Fatalf("shard partition sums (pruned %d true %d rem %d) != global (%d %d %d)",
			sumPruned, sumTrue, sumRem, g.Pruned, g.TrueHits, g.Remaining)
	}
}
