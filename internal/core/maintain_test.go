package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/lsh"
	"exploitbit/internal/shard"
)

// maintainedShards is the axis every maintainer suite runs over: flat
// maintained serving (one unit over the world's own point file) and a real
// partition. There is one maintainer, so there is one table.
var maintainedShards = []int{1, 3}

func forShards(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range maintainedShards {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// layoutFor returns the maintainer layout of ds at n shards: the dataset
// whole over pf for n = 1, else a round-robin partition with one point file
// per shard.
func layoutFor(t testing.TB, ds *dataset.Dataset, pf *disk.PointFile, n int) ([]ShardSpec, []int32, []int32) {
	t.Helper()
	if n == 1 {
		return SingleShard(pf, ds)
	}
	return shardSpecs(t, ds, n, shard.RoundRobin)
}

// newTestMaintainer builds a maintainer over n shards of (ds, pf), profiled
// from wl at k. The specs come back for tests that break a shard's storage.
func newTestMaintainer(t testing.TB, ds *dataset.Dataset, pf *disk.PointFile, cands CandidateFunc, n int, wl [][]float32, k int, cfg Config, opt MaintainOptions) (*Maintainer, []ShardSpec) {
	t.Helper()
	specs, owner, local := layoutFor(t, ds, pf, n)
	m, err := NewMaintainer(specs, owner, local, BuildProfile(ds, cands, wl, k), cands, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, specs
}

// waitRebuildIdle blocks until no background rebuild is queued or running.
func waitRebuildIdle(t *testing.T, m *Maintainer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().RebuildInFlight {
		if time.Now().After(deadline) {
			t.Fatal("background rebuild never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// driftWorld builds a dataset with two disjoint query populations: pool A
// (sampled from the first half of the points) and pool B (second half).
func driftWorld(t testing.TB) (*dataset.Dataset, *disk.PointFile, CandidateFunc, [][]float32, [][]float32) {
	t.Helper()
	ds := dataset.Generate(dataset.Config{
		Name: "drift", N: 3000, Dim: 12, Clusters: 10, Std: 0.03,
		Ndom: 256, Seed: 97, ValueCoherence: 0.7,
	})
	pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), "pf"), ds, nil, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	ix := lsh.Build(ds, lsh.Params{Seed: 98, MaxM: 48})
	cands := candFunc(ix)

	mkPool := func(lo, hi int, n int) [][]float32 {
		out := make([][]float32, 0, n)
		for i := 0; len(out) < n; i++ {
			out = append(out, ds.Point(lo+(i*37)%(hi-lo)))
		}
		return out
	}
	poolA := mkPool(0, ds.Len()/2, 300)
	poolB := mkPool(ds.Len()/2, ds.Len(), 300)
	return ds, pf, cands, poolA, poolB
}

func TestMaintainerDetectsDriftAndRecovers(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, poolB := driftWorld(t)
		m, _ := newTestMaintainer(t, ds, pf, cands, n, poolA, 5, Config{
			Method: Exact, CacheBytes: int64(ds.Len()) * int64(ds.PointSize()) / 5,
		}, MaintainOptions{WindowSize: 64, DegradeFactor: 0.8, MinQueriesBetweenRebuilds: 64})
		defer m.Close()

		run := func(pool [][]float32, n int) (hits, cands int64) {
			for i := 0; i < n; i++ {
				_, st, err := m.Search(pool[i%len(pool)], 5)
				if err != nil {
					t.Fatal(err)
				}
				hits += int64(st.Hits)
				cands += int64(st.Candidates)
			}
			return
		}

		// Phase 1: the trained workload — healthy hit ratio, no rebuilds.
		h, c := run(poolA, 128)
		healthy := float64(h) / float64(c)
		if healthy < 0.3 {
			t.Fatalf("trained hit ratio only %.2f", healthy)
		}
		if r := m.Stats().Rebuilds; r != 0 {
			t.Fatalf("rebuilt on the trained workload (%d times)", r)
		}

		// Phase 2: drift to the disjoint pool; every slot must rebuild.
		// Rebuilds run in the background, so wait for the swaps before checking.
		run(poolB, 400)
		// Detection arms a one-window countdown that only traffic advances
		// (driftState.pendingRebuild): a slot that detects late in the 400
		// holds its launch guard until more pool-B queries arrive, so keep the
		// drifted traffic flowing until every armed slot has fired.
		for i := 0; i < 20 && m.Stats().RebuildInFlight; i++ {
			run(poolB, 64)
			time.Sleep(20 * time.Millisecond)
		}
		waitRebuildIdle(t, m)
		for s, ss := range m.ShardStats() {
			if ss.Rebuilds == 0 {
				t.Fatalf("drift never triggered a rebuild of slot %d", s)
			}
		}

		// Phase 3: after rebuilding from the new window, pool B is healthy.
		h, c = run(poolB, 128)
		if recovered := float64(h) / float64(c); recovered < healthy*0.6 {
			t.Fatalf("post-rebuild hit ratio %.2f did not recover (healthy was %.2f)", recovered, healthy)
		}
	})
}

// seedWindows serves n pool queries so every slot's window has a workload.
func seedWindows(t *testing.T, m *Maintainer, pool [][]float32, n, k int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := m.Search(pool[i%len(pool)], k); err != nil {
			t.Fatal(err)
		}
	}
}

// onlySlotRebuilt asserts slot s has completed exactly one rebuild and every
// other slot none.
func onlySlotRebuilt(t *testing.T, m *Maintainer, s int) {
	t.Helper()
	for u, ss := range m.ShardStats() {
		want := 0
		if u == s {
			want = 1
		}
		if ss.Rebuilds != want {
			t.Fatalf("slot %d rebuilds = %d, want %d", u, ss.Rebuilds, want)
		}
	}
}

// TestMaintainerNonBlockingRebuild holds a rebuild in flight behind the test
// gate and proves searches keep completing against the old engine while it
// runs — the acceptance property of the RCU-style swap — and that only the
// rebuilt slot's engine moves.
func TestMaintainerNonBlockingRebuild(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, _ := driftWorld(t)
		m, _ := newTestMaintainer(t, ds, pf, cands, n, poolA[:50], 5, Config{
			Method: Exact, CacheBytes: 1 << 18,
		}, MaintainOptions{WindowSize: 16})
		defer m.Close()
		seedWindows(t, m, poolA, 20, 5)

		gate := make(chan struct{})
		m.opt.RebuildGate = gate
		s := n - 1
		before := make([]*Engine, n)
		for u := range before {
			before[u] = m.Sharded().Engine(u)
		}
		if !m.RebuildShardAsync(s) {
			t.Fatal("RebuildShardAsync refused with a populated window")
		}
		if !m.Stats().RebuildInFlight || !m.ShardStats()[s].RebuildInFlight {
			t.Fatal("rebuild not reported in flight")
		}
		// A second launch must be rejected while one is pending.
		if m.RebuildShardAsync(s) {
			t.Fatal("second RebuildShardAsync accepted while one is in flight")
		}

		// The rebuild is parked on the gate: every search must still complete,
		// served by the old engines.
		for i := 0; i < 50; i++ {
			ids, _, err := m.Search(poolA[i%len(poolA)], 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 5 {
				t.Fatalf("search returned %d ids during rebuild", len(ids))
			}
		}
		if m.Sharded().Engine(s) != before[s] {
			t.Fatal("engine swapped while the rebuild was still gated")
		}

		close(gate)
		waitRebuildIdle(t, m)
		st := m.Stats()
		if st.Rebuilds != 1 || st.RebuildErrors != 0 {
			t.Fatalf("stats after rebuild: %+v", st)
		}
		for u := range before {
			if swapped := m.Sharded().Engine(u) != before[u]; swapped != (u == s) {
				t.Fatalf("slot %d swapped = %v after rebuilding slot %d", u, swapped, s)
			}
		}
		if _, _, err := m.Search(poolA[0], 5); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMaintainerRebuildFailureKeepsServing injects a failing build and checks
// the failure is counted, never surfaces to searches, and leaves the old
// engine serving.
func TestMaintainerRebuildFailureKeepsServing(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, _ := driftWorld(t)
		m, _ := newTestMaintainer(t, ds, pf, cands, n, poolA[:50], 5, Config{
			Method: Exact, CacheBytes: 1 << 18,
		}, MaintainOptions{WindowSize: 16})
		defer m.Close()
		seedWindows(t, m, poolA, 20, 5)

		m.build = func(*ShardedEngine, int, [][]float32, int) (*Engine, error) {
			return nil, errors.New("injected build failure")
		}
		s := n - 1
		before := m.Sharded().Engine(s)
		if !m.RebuildShardAsync(s) {
			t.Fatal("RebuildShardAsync refused with a populated window")
		}
		waitRebuildIdle(t, m)

		st := m.Stats()
		if st.Rebuilds != 0 || st.RebuildErrors != 1 {
			t.Fatalf("stats after failed rebuild: %+v", st)
		}
		if m.Sharded().Engine(s) != before {
			t.Fatal("failed rebuild replaced the serving engine")
		}
		seedWindows(t, m, poolA, 20, 5)
	})
}

// TestMaintainerForceShardRebuildStats exercises the synchronous per-slot
// rebuild seam: an empty window is an error, a completed rebuild records its
// build wall-clock and installation timestamp (both zero until the first
// rebuild lands) in the slot and in the aggregate rollup, only the rebuilt
// slot counts it, and results stay correct afterwards.
func TestMaintainerForceShardRebuildStats(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		w := buildWorld(t, 1100, 16, 11)
		m, _ := newTestMaintainer(t, w.ds, w.pf, candFunc(w.ix), n, w.wl, 10,
			Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}, MaintainOptions{})
		defer m.Close()
		s := n - 1

		if err := m.ForceShardRebuild(s); err == nil {
			t.Fatal("ForceShardRebuild with an empty window did not fail")
		}
		if st := m.Stats(); st.LastRebuildWall != 0 || !st.LastRebuildAt.IsZero() {
			t.Fatalf("fresh maintainer reports a rebuild: %+v", st)
		}
		seedWindows(t, m, w.qtest, len(w.qtest), 10)
		before := time.Now()
		if err := m.ForceShardRebuild(s); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Rebuilds != 1 || st.RebuildErrors != 0 {
			t.Fatalf("aggregate stats = %+v, want 1 rebuild", st)
		}
		if st.LastRebuildWall <= 0 {
			t.Fatalf("aggregate wall = %v, want > 0", st.LastRebuildWall)
		}
		if st.LastRebuildAt.Before(before) || st.LastRebuildAt.After(time.Now()) {
			t.Fatalf("aggregate timestamp %v outside [%v, now]", st.LastRebuildAt, before)
		}
		onlySlotRebuilt(t, m, s)
		if ss := m.ShardStats()[s]; ss.LastRebuildWall != st.LastRebuildWall || !ss.LastRebuildAt.Equal(st.LastRebuildAt) {
			t.Fatalf("slot %d telemetry %+v disagrees with the rollup %+v", s, ss, st)
		}
		// The rebuilt slot serves from a unit-local histogram, so per-query
		// stats may shift — but result correctness is non-negotiable.
		for _, q := range w.qtest {
			ids, _, err := m.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, w, q, ids, 10)
		}
	})
}

// TestMaintainerRebuildDuringSearches hammers concurrent searches against one
// slot's RCU rebuild (run under -race in CI): the swap must never disturb
// in-flight queries or the other slots, and results must stay correct.
func TestMaintainerRebuildDuringSearches(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		w := buildWorld(t, 1203, 16, 9)
		gate := make(chan struct{})
		m, _ := newTestMaintainer(t, w.ds, w.pf, candFunc(w.ix), n, w.wl, 10,
			Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6},
			MaintainOptions{RebuildGate: gate})
		defer m.Close()
		seedWindows(t, m, w.qtest, len(w.qtest), 10)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		errc := make(chan error, 4) // one slot per searcher: sends never block
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := m.Search(w.qtest[(g+i)%len(w.qtest)], 10); err != nil {
						errc <- err
						return
					}
				}
			}(g)
		}

		s := n / 2
		if !m.RebuildShardAsync(s) {
			t.Fatalf("slot %d rebuild did not launch", s)
		}
		close(gate) // release the parked build under full search load

		deadline := time.After(10 * time.Second)
		for m.ShardStats()[s].Rebuilds == 0 {
			select {
			case err := <-errc:
				t.Fatal(err)
			case <-deadline:
				t.Fatalf("slot %d rebuild did not complete", s)
			case <-time.After(5 * time.Millisecond):
			}
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}

		onlySlotRebuilt(t, m, s)
		// Post-rebuild searches still serve correct results.
		for _, q := range w.qtest {
			ids, _, err := m.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			checkKNN(t, w, q, ids, 10)
		}
	})
}

// TestMaintainerRebuildDepthIsTheConstructorsK is the regression test for
// client-controlled profiling depth: a drift window tripped by a k = 1000
// query must install the same engine as one tripped at k = 10, because every
// rebuild profiles at the constructor's k.
func TestMaintainerRebuildDepthIsTheConstructorsK(t *testing.T) {
	ds, pf, cands, poolA, poolB := driftWorld(t)
	const k = 10
	cfg := Config{Method: HCO, CacheBytes: 4 << 10, Tau: 6}
	opt := MaintainOptions{WindowSize: 32, MinQueriesBetweenRebuilds: 32}

	// drive serves a pool-A hot set (the trained one) then a pool-B hot set until drift arms slot 0's rebuild, then
	// the one-window countdown whose last query launches it — that query at
	// tripK — and reports the index of the arming query.
	drive := func(m *Maintainer, tripK int) int {
		t.Helper()
		query := func(i, kq int) {
			q := poolA[i%8]
			if i >= 96 {
				q = poolB[i%8]
			}
			if _, _, err := m.Search(q, kq); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			query(i, k)
			if !m.Stats().RebuildInFlight {
				continue
			}
			// Armed at query i: the launch CAS is held through the countdown,
			// and the WindowSize-th query after it snapshots and launches.
			for j := 1; j < opt.WindowSize; j++ {
				query(i+j, k)
			}
			query(i+opt.WindowSize, tripK)
			waitRebuildIdle(t, m)
			return i
		}
		t.Fatal("drift never armed a rebuild")
		return -1
	}

	ref, _ := newTestMaintainer(t, ds, pf, cands, 1, poolA[:8], k, cfg, opt)
	defer ref.Close()
	armedAt := drive(ref, k)

	got, _ := newTestMaintainer(t, ds, pf, cands, 1, poolA[:8], k, cfg, opt)
	defer got.Close()
	if at := drive(got, 1000); at != armedAt {
		t.Fatalf("the k=1000 run armed at query %d, the k=%d run at %d", at, k, armedAt)
	}
	if ref.Stats().Rebuilds != 1 || got.Stats().Rebuilds != 1 {
		t.Fatalf("rebuilds = %d / %d, want 1 / 1", ref.Stats().Rebuilds, got.Stats().Rebuilds)
	}

	a, b := ref.Engine(), got.Engine()
	if !reflect.DeepEqual(a.slab.Keys(), b.slab.Keys()) {
		t.Fatal("a window tripped at k=1000 cached different points than one tripped at k=10")
	}
	if !reflect.DeepEqual(a.slab.Arena(), b.slab.Arena()) {
		t.Fatal("a window tripped at k=1000 built a different histogram than one tripped at k=10")
	}
	for i, q := range append(poolA[:32:32], poolB[:32]...) {
		wantIDs, wantSt, err := a.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, gotSt, err := b.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(wantIDs, gotIDs) {
			t.Fatalf("probe %d: ids %v != %v", i, gotIDs, wantIDs)
		}
		if d := diffStats(wantSt, gotSt); d != "" {
			t.Fatalf("probe %d: %s", i, d)
		}
	}
}

// foldWorld extends a world by extra points appended to its point file, the
// way a live-ingest compaction does: the folded dataset, and a candidate
// index rebuilt over it.
func foldWorld(t testing.TB, w *world, extra int) (*dataset.Dataset, CandidateFunc) {
	t.Helper()
	add := dataset.Generate(dataset.Config{Name: "fold", N: extra, Dim: w.ds.Dim, Clusters: 3, Std: 0.05, Ndom: 256, Seed: 77})
	vecs := make([][]float32, extra)
	data := append([]float32(nil), w.ds.Data()...)
	for i := range vecs {
		vecs[i] = append([]float32(nil), add.Point(i)...)
		w.ds.Domain.ClampPoint(vecs[i])
		data = append(data, vecs[i]...)
	}
	if err := w.pf.Append(w.ds.Len(), vecs); err != nil {
		t.Fatal(err)
	}
	fold := dataset.New(w.ds.Name, w.ds.Dim, data, w.ds.Domain)
	return fold, candFunc(lsh.Build(fold, lsh.Params{Seed: 5, MaxM: 48}))
}

// compact runs one CompactRebuild of m onto (fold, cands) and waits for it.
func compact(t *testing.T, m *Maintainer, fold *dataset.Dataset, cands CandidateFunc) {
	t.Helper()
	done := make(chan bool, 1)
	ok := m.CompactRebuild(func() (*dataset.Dataset, CandidateFunc, error) { return fold, cands, nil },
		func(installed bool) { done <- installed })
	if !ok {
		t.Fatal("CompactRebuild refused on an idle 1-unit maintainer")
	}
	if !<-done {
		t.Fatal("compaction rebuild failed")
	}
}

// TestMaintainedOneShardBitIdenticalToFlat pins "flat maintained serving is
// the 1-shard case of the router": an N = 1 maintainer returns the ids AND the
// Pruned/TrueHits/Remaining/PageReads of a flat Engine built from the same
// inputs — at start (same profile), after ForceShardRebuild(0) (flat engine
// built over the same window) and after a compaction (flat engine built over
// the folded dataset).
func TestMaintainedOneShardBitIdenticalToFlat(t *testing.T) {
	for _, method := range []Method{HCO, Exact, MHCR} {
		t.Run(string(method), func(t *testing.T) {
			w := buildTieWorld(t, 1203, 16, 21)
			cands := candFunc(w.ix)
			cfg := Config{Method: method, CacheBytes: 64 << 10, Tau: 6}
			m, _ := newTestMaintainer(t, w.ds, w.pf, cands, 1, w.wl, 10, cfg, MaintainOptions{WindowSize: len(w.qtest)})
			defer m.Close()

			identical := func(stage string, flat *Engine) {
				t.Helper()
				for _, k := range []int{1, 10} {
					for qi, q := range w.qtest {
						wantIDs, wantSt, err := flat.Search(q, k)
						if err != nil {
							t.Fatal(err)
						}
						// Through the router, not the maintainer: the probe must
						// not feed the window the next stage rebuilds from.
						gotIDs, gotSt, err := m.Sharded().Search(q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !sameIDs(wantIDs, gotIDs) {
							t.Fatalf("%s q%d k%d: ids %v != %v", stage, qi, k, gotIDs, wantIDs)
						}
						if d := diffStats(wantSt, gotSt); d != "" {
							t.Fatalf("%s q%d k%d: %s", stage, qi, k, d)
						}
					}
				}
			}
			flatOver := func(ds *dataset.Dataset, cands CandidateFunc, wl [][]float32) *Engine {
				t.Helper()
				e, err := NewEngine(w.pf, BuildProfile(ds, cands, wl, 10), cands, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}

			identical("start", flatOver(w.ds, cands, w.wl))

			// The window (WindowSize len(qtest)) holds exactly these queries, in
			// this order, however often they repeat; the k they are served at
			// is a client's and must not matter.
			window := w.qtest
			seedWindows(t, m, window, len(window), 3)
			if err := m.ForceShardRebuild(0); err != nil {
				t.Fatal(err)
			}
			identical("rebuilt", flatOver(w.ds, cands, window))

			seedWindows(t, m, window, len(window), 3)
			fold, foldCands := foldWorld(t, w, 150)
			compact(t, m, fold, foldCands)
			if got := m.Engine().NumPoints(); got != fold.Len() {
				t.Fatalf("compacted engine covers %d points, fold has %d", got, fold.Len())
			}
			identical("compacted", flatOver(fold, foldCands, window))
			if st := m.Stats(); st.Rebuilds != 2 || st.RebuildErrors != 0 {
				t.Fatalf("stats after rebuild + compaction: %+v", st)
			}
		})
	}
}

// TestMaintainerCompactionSwapHorizonRace hammers searches across compaction
// swaps on the 1-unit router (run under -race in CI). Each generation's
// candidate generator returns every id of its own fold, so a search that
// paired a post-fold candidate list with a pre-fold engine would carry ids at
// or beyond the scoring engine's horizon — an out-of-range id map or cache
// lookup. The router snapshot makes that impossible: every search must see
// one generation's candidate count, and results inside that generation.
func TestMaintainerCompactionSwapHorizonRace(t *testing.T) {
	w := buildWorld(t, 600, 8, 31)
	m, _ := newTestMaintainer(t, w.ds, w.pf, allCandsOf(w.ds, w.ds.Len()), 1, w.wl, 5,
		Config{Method: HCO, CacheBytes: 8 << 10, Tau: 6}, MaintainOptions{WindowSize: 32})
	defer m.Close()

	const step, gens = 40, 4
	horizons := map[int]bool{w.ds.Len(): true}
	for g := 1; g <= gens; g++ {
		horizons[w.ds.Len()+g*step] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ids, st, err := m.SearchCtx(context.Background(), w.qtest[(g+i)%len(w.qtest)], 5, nil, nil)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if !horizons[st.Candidates] {
					t.Errorf("search saw %d candidates, no generation has that many", st.Candidates)
					return
				}
				for _, id := range ids {
					if id >= st.Candidates {
						t.Errorf("result id %d at or beyond the serving horizon %d", id, st.Candidates)
						return
					}
				}
			}
		}(g)
	}
	for g := 1; g <= gens; g++ {
		fold, _ := foldWorld(t, w, step)
		w.ds = fold
		compact(t, m, fold, allCandsOf(fold, fold.Len()))
		time.Sleep(2 * time.Millisecond) // searchers straddle the next swap too
	}
	close(stop)
	wg.Wait()
	if got := m.Engine().NumPoints(); got != w.ds.Len() {
		t.Fatalf("serving engine covers %d points after %d compactions, fold has %d", got, gens, w.ds.Len())
	}
}

// TestMaintainerCompactRefusedWhenSharded: the fold of a sharded layout would
// re-partition every shard file, so CompactRebuild refuses N > 1 without
// calling prepare.
func TestMaintainerCompactRefusedWhenSharded(t *testing.T) {
	w := buildWorld(t, 600, 8, 32)
	m, _ := newTestMaintainer(t, w.ds, w.pf, candFunc(w.ix), 3, w.wl, 5,
		Config{Method: HCO, CacheBytes: 8 << 10, Tau: 6}, MaintainOptions{})
	defer m.Close()
	called := false
	if m.CompactRebuild(func() (*dataset.Dataset, CandidateFunc, error) {
		called = true
		return nil, nil, errors.New("unreachable")
	}, nil) {
		t.Fatal("CompactRebuild accepted a 3-unit maintainer")
	}
	if called || m.Stats().RebuildInFlight {
		t.Fatal("refused compaction still ran prepare or took the rebuild queue")
	}
}
