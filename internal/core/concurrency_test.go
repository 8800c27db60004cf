package core

import (
	"sync"
	"testing"
	"time"

	"exploitbit/internal/cache"
)

// TestConcurrentSearches runs many goroutines through one engine and checks
// (under -race in CI) that results match the sequential run and statistics
// add up.
func TestConcurrentSearches(t *testing.T) {
	w := buildWorld(t, 1200, 10, 95)
	for _, cfg := range []Config{
		{Method: HCO, CacheBytes: 64 << 10, Tau: 7},
		{Method: Exact, CacheBytes: 64 << 10},
		{Method: Exact, CacheBytes: 64 << 10, Policy: cache.LRU},
		{Method: NoCache},
	} {
		cfg := cfg
		t.Run(string(cfg.Method)+"/"+cfg.Policy.String(), func(t *testing.T) {
			eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Sequential reference (skip for LRU whose state evolves).
			ref := make([][]int, len(w.qtest))
			if cfg.Policy == cache.HFF {
				for i, q := range w.qtest {
					ids, _, err := eng.Search(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					ref[i] = ids
				}
				eng.ResetStats()
			}

			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, q := range w.qtest {
						ids, _, err := eng.Search(q, 5)
						if err != nil {
							errs <- err
							return
						}
						if cfg.Policy == cache.HFF {
							if len(ids) != len(ref[i]) {
								errs <- errMismatch
								return
							}
							want := map[int]bool{}
							for _, id := range ref[i] {
								want[id] = true
							}
							for _, id := range ids {
								if !want[id] {
									errs <- errMismatch
									return
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			agg := eng.Aggregate()
			if cfg.Policy == cache.HFF && agg.Queries != workers*len(w.qtest) {
				t.Fatalf("aggregate recorded %d queries, want %d", agg.Queries, workers*len(w.qtest))
			}
		})
	}
}

// TestTreeEngineConcurrentSearches is the tree-engine counterpart: the HFF
// leaf caches are immutable after construction and the aggregate is atomic,
// so concurrent searches must return the sequential results exactly and the
// query count must add up (data races surface under -race in CI).
func TestTreeEngineConcurrentSearches(t *testing.T) {
	w := buildTreeWorld(t, "rtree", 1200, 10, 96)
	for _, cfg := range []TreeConfig{
		{Method: Exact, CacheBytes: 128 << 10},
		{Method: HCO, CacheBytes: 96 << 10, Tau: 7},
		{Method: NoCache},
	} {
		cfg := cfg
		t.Run(string(cfg.Method), func(t *testing.T) {
			eng, err := NewTreeEngine(w.ds, w.ix, w.store, w.wl, 10, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([][]int, len(w.qtest))
			for i, q := range w.qtest {
				ids, _, err := eng.Search(q, 5)
				if err != nil {
					t.Fatal(err)
				}
				ref[i] = ids
			}
			eng.ResetStats()

			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var dst []int
					for i, q := range w.qtest {
						var err error
						dst, _, err = eng.SearchInto(q, 5, dst[:0])
						if err != nil {
							errs <- err
							return
						}
						if len(dst) != len(ref[i]) {
							errs <- errMismatch
							return
						}
						for j, id := range dst {
							if id != ref[i][j] {
								errs <- errMismatch
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if agg := eng.Aggregate(); agg.Queries != workers*len(w.qtest) {
				t.Fatalf("aggregate recorded %d queries, want %d", agg.Queries, workers*len(w.qtest))
			}
		})
	}
}

// TestConcurrentSlabScanDuringRebuild hammers a slab-backed HC-O engine with
// concurrent searches while the Maintainer rebuilds and RCU-swaps the engine
// underneath them — the scenario the slab's immutability contract exists for.
// Scans of the old slab must keep completing (and returning k results) while
// the new slab is built and published; -race in CI verifies no scan ever
// observes a slab under mutation. The rebuild gate holds each swap until
// searchers are mid-flight, so scans genuinely span the publish.
func TestConcurrentSlabScanDuringRebuild(t *testing.T) {
	ds, pf, cands, poolA, poolB := driftWorld(t)
	m, _ := newTestMaintainer(t, ds, pf, cands, 1, poolA, 5, Config{
		Method:     HCO,
		CacheBytes: 1 << 30, // covering: every candidate scores through the slab
		Tau:        8,
		// Fan Phase 2 out aggressively so slab blocks are scanned from many
		// goroutines at once, not just many queries.
		parallelReduceThreshold: 1,
	}, MaintainOptions{WindowSize: 32})
	defer m.Close()
	if m.Engine().slab == nil {
		t.Fatal("HC-O maintainer engine did not build a slab")
	}
	// Populate the sliding window so every RebuildAsync below has a workload.
	for i := 0; i < 40; i++ {
		if _, _, err := m.Search(poolA[i%len(poolA)], 5); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pools := [2][][]float32{poolA, poolB}
			var dst []int
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := pools[i%2][(i*7+g*13)%len(poolA)]
				var err error
				dst, _, err = m.SearchInto(q, 5, dst[:0])
				if err != nil {
					errs <- err
					return
				}
				if len(dst) != 5 {
					errs <- errMismatch
					return
				}
			}
		}(g)
	}

	// Drive several full rebuild/swap cycles under load, each parked on the
	// gate long enough for in-flight scans to straddle the publish.
	for cycle := 0; cycle < 4; cycle++ {
		gate := make(chan struct{})
		m.opt.RebuildGate = gate
		if !m.RebuildShardAsync(0) {
			t.Fatalf("cycle %d: RebuildShardAsync refused", cycle)
		}
		before := m.Engine()
		time.Sleep(2 * time.Millisecond) // searchers mid-flight on the old slab
		close(gate)
		waitRebuildIdle(t, m)
		if m.Engine() == before {
			t.Fatalf("cycle %d: engine not swapped", cycle)
		}
		if m.Engine().slab == nil {
			t.Fatalf("cycle %d: rebuilt engine lost its slab", cycle)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Rebuilds != 4 || st.RebuildErrors != 0 {
		t.Fatalf("rebuild stats after cycles: %+v", st)
	}
}

var errMismatch = errConst("concurrent result mismatch")

type errConst string

func (e errConst) Error() string { return string(e) }
