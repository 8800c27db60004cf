package exploitbit

import (
	"fmt"
	"testing"

	"exploitbit/internal/core"
)

// shardedPair opens the same dataset and workload twice — once unsharded,
// once with n shards — so the two facades can be compared query-for-query.
func shardedPair(t testing.TB, n int, layout ShardLayout) (*System, *System, [][]float32) {
	t.Helper()
	ds := Generate(DatasetConfig{Name: "shardfacade", N: 1200, Dim: 10, Clusters: 5, Std: 0.05, Ndom: 256, Seed: 41})
	log := GenLog(ds, LogConfig{PoolSize: 80, Length: 400, ZipfS: 1.4, Perturb: 0.005, Seed: 42})
	wl, qtest := log.Split(10)
	flat, err := Open(ds, wl, Options{Tio: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flat.Close() })
	sys, err := Open(ds, wl, Options{Tio: 0, Shards: n, ShardLayout: layout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if sys.Shards() != n {
		t.Fatalf("Shards() = %d, want %d", sys.Shards(), n)
	}
	return flat, sys, qtest
}

// TestShardedFacadeBitIdentical drives the public API end to end: a system
// opened with Options.Shards must answer every query with the same ids and
// I/O charge as the unsharded system.
func TestShardedFacadeBitIdentical(t *testing.T) {
	for _, layout := range []ShardLayout{RoundRobin, Clustered} {
		layout := layout
		t.Run(string(layout), func(t *testing.T) {
			flat, sys, qtest := shardedPair(t, 3, layout)
			eng, err := flat.Engine(HCO, 32<<10, 6)
			if err != nil {
				t.Fatal(err)
			}
			se, err := sys.ShardedEngine(HCO, 32<<10, 6)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range qtest {
				want, wst, err := eng.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				got, gst, err := se.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != len(got) {
					t.Fatalf("q%d: %d ids, want %d", qi, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("q%d rank %d: id %d, want %d", qi, i, got[i], want[i])
					}
				}
				if wst.Fetched != gst.Fetched || wst.PageReads != gst.PageReads ||
					wst.Pruned != gst.Pruned || wst.TrueHits != gst.TrueHits {
					t.Fatalf("q%d: stats diverged: %+v vs %+v", qi, gst, wst)
				}
			}
			aggs := se.ShardAggregates()
			if len(aggs) != 3 {
				t.Fatalf("%d shard aggregate blocks, want 3", len(aggs))
			}
		})
	}
}

// TestShardedFacadeMaintained exercises the maintained path through the
// facade at one unit and at a real partition: searches serve, a forced
// rebuild lands, stats reflect it.
func TestShardedFacadeMaintained(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, sys, qtest := shardedPair(t, shards, RoundRobin)
			m, err := sys.Maintained(core.Config{Method: HCO, CacheBytes: 32 << 10, Tau: 6, SmoothEps: 0.01}, MaintainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := m.Sharded().Shards(); got != shards {
				t.Fatalf("maintainer serves %d units, want %d", got, shards)
			}
			for _, q := range qtest {
				ids, _, err := m.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != 5 {
					t.Fatalf("%d results", len(ids))
				}
			}
			if err := m.ForceShardRebuild(shards - 1); err != nil {
				t.Fatal(err)
			}
			if st := m.Stats(); st.Rebuilds != 1 || st.LastRebuildAt.IsZero() {
				t.Fatalf("maintain stats after forced rebuild: %+v", st)
			}
		})
	}
}

// TestShardedFacadeErrors pins the facade's misuse errors: sharding is
// incompatible with a custom ordering, and sharded constructors demand a
// sharded Open.
func TestShardedFacadeErrors(t *testing.T) {
	ds := Generate(DatasetConfig{Name: "sharderr", N: 300, Dim: 6, Clusters: 3, Ndom: 256, Seed: 43})
	log := GenLog(ds, LogConfig{PoolSize: 20, Length: 60, Perturb: 0.01, Seed: 44})
	wl, _ := log.Split(5)
	if _, err := Open(ds, wl, Options{Shards: 2, Ordering: []int{0}}); err == nil {
		t.Fatal("Open accepted Shards together with Ordering")
	}
	sys, err := Open(ds, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.ShardedEngine(HCO, 32<<10, 6); err == nil {
		t.Fatal("ShardedEngine worked without Options.Shards")
	}
}
