package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/vec"
)

// allCandsOf returns a candidate function covering every point of an n-point
// dataset, so merged-search equivalence is not confounded by index
// construction differing between the base and the folded dataset.
func allCandsOf(ds *dataset.Dataset, n int) CandidateFunc {
	return func(q []float32, k int) ([]int, float64) {
		ids := make([]int, n)
		dmax := 0.0
		for i := 0; i < n; i++ {
			ids[i] = i
			if d := vec.Dist(q, ds.Point(i)); d > dmax {
				dmax = d
			}
		}
		return ids, dmax
	}
}

// mergeWorld is the equivalence fixture: a base engine over the first n0
// points and a reference engine rebuilt over the full folded dataset, both
// with all-covering candidates.
type mergeWorld struct {
	full   *dataset.Dataset
	n0     int
	base   *Engine
	folded *Engine
	qtest  [][]float32
	extras []MergePoint
}

func buildMergeWorld(t *testing.T, method Method, n, n0, dim int) *mergeWorld {
	t.Helper()
	full := dataset.Generate(dataset.Config{Name: "mrg", N: n, Dim: dim, Clusters: 5, Std: 0.05, Ndom: 256, Seed: 7})
	baseDS := dataset.New("mrg-base", dim, full.Data()[:n0*dim], full.Domain)
	log := dataset.GenLog(full, dataset.LogConfig{PoolSize: 40, Length: 200, ZipfS: 1.3, Perturb: 0.005, Seed: 8})
	wl, qtest := log.Split(16)

	mk := func(ds *dataset.Dataset, nPts int, name string) *Engine {
		pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), name), ds, nil, 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pf.Close() })
		cands := allCandsOf(ds, nPts)
		prof := BuildProfile(ds, cands, wl, 10)
		eng, err := NewEngine(pf, prof, cands, Config{Method: method, CacheBytes: 64 << 10, Tau: 6})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	w := &mergeWorld{full: full, n0: n0, qtest: qtest}
	w.base = mk(baseDS, n0, "base")
	w.folded = mk(full, n, "fold")
	for i := n0; i < n; i++ {
		w.extras = append(w.extras, MergePoint{ID: int32(i), Vec: full.Point(i)})
	}
	return w
}

// idsEqual compares result id lists. Exact scores every candidate, so its
// output order is fully determined and compared verbatim; the caching methods
// emit ids in refinement order, so those compare as sets.
func idsEqual(t *testing.T, method Method, ctx string, got, want []int) {
	t.Helper()
	if method != Exact {
		got = append([]int(nil), got...)
		want = append([]int(nil), want...)
		sort.Ints(got)
		sort.Ints(want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: merged ids %v, want %v", ctx, got, want)
	}
}

// TestMergedSearchEquivalentToRebuild pins the live-ingest read invariant: a
// base engine searching with the delta folded in through a Merge overlay
// returns ids identical to an engine rebuilt over the folded dataset. With
// tombstones, the rebuilt engine keeps the tombstone mask (deleted points stay
// folded for id density), so the comparison is full overlay vs tombs-only
// overlay.
func TestMergedSearchEquivalentToRebuild(t *testing.T) {
	for _, method := range []Method{Exact, HCO} {
		t.Run(string(method), func(t *testing.T) {
			w := buildMergeWorld(t, method, 600, 400, 8)
			k := 10

			// Tombstone a mix of base and delta ids.
			tombs := map[int32]struct{}{3: {}, 57: {}, 399: {}, 401: {}, 580: {}}
			deleted := func(id int32) bool { _, ok := tombs[id]; return ok }
			fullOverlay := &Merge{Deleted: deleted, Extra: w.extras}
			tombsOnly := &Merge{Deleted: deleted}

			for _, q := range w.qtest {
				// No tombstones: base+extras vs plain folded search.
				got, _, err := w.base.SearchCtx(context.Background(), q, k, nil, &Merge{Extra: w.extras})
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := w.folded.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				idsEqual(t, method, "no-tombs", got, want)

				// With tombstones.
				got, _, err = w.base.SearchCtx(context.Background(), q, k, nil, fullOverlay)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err = w.folded.SearchCtx(context.Background(), q, k, nil, tombsOnly)
				if err != nil {
					t.Fatal(err)
				}
				idsEqual(t, method, "tombs", got, want)
				for _, id := range got {
					if deleted(int32(id)) {
						t.Fatalf("tombstoned id %d in results", id)
					}
				}

				// Horizon skip: handing the folded engine the full overlay —
				// extras it already contains — must change nothing. This is
				// what makes the overlay safe across an RCU engine swap.
				hz, _, err := w.folded.SearchCtx(context.Background(), q, k, nil, fullOverlay)
				if err != nil {
					t.Fatal(err)
				}
				idsEqual(t, method, "horizon-skip", hz, want)
			}
		})
	}
}

// TestMergedSearchRandomInterleavings drives a random insert/delete
// interleaving through the overlay and cross-checks the merged results
// against exact brute force over the surviving point set at several cuts.
func TestMergedSearchRandomInterleavings(t *testing.T) {
	const n, n0, dim, k = 700, 450, 8, 10
	w := buildMergeWorld(t, HCO, n, n0, dim)
	rng := rand.New(rand.NewSource(99))

	tombs := map[int32]struct{}{}
	inserted := 0
	check := func(step string) {
		t.Helper()
		deleted := func(id int32) bool { _, ok := tombs[id]; return ok }
		mg := &Merge{Deleted: deleted, Extra: w.extras[:inserted]}
		for _, q := range w.qtest[:6] {
			got, _, err := w.base.SearchCtx(context.Background(), q, k, nil, mg)
			if err != nil {
				t.Fatal(err)
			}
			// Brute-force reference over every live id.
			type cand struct {
				id int
				d  float64
			}
			var ref []cand
			for id := 0; id < n0+inserted; id++ {
				if deleted(int32(id)) {
					continue
				}
				ref = append(ref, cand{id, vec.Dist(q, w.full.Point(id))})
			}
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].d != ref[j].d {
					return ref[i].d < ref[j].d
				}
				return ref[i].id < ref[j].id
			})
			want := make([]int, 0, k)
			for i := 0; i < k && i < len(ref); i++ {
				want = append(want, ref[i].id)
			}
			gs := append([]int(nil), got...)
			sort.Ints(gs)
			ws := append([]int(nil), want...)
			sort.Ints(ws)
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s: merged ids %v, brute force %v", step, gs, ws)
			}
		}
	}

	check("initial")
	for step := 0; step < 120; step++ {
		if inserted < len(w.extras) && (rng.Intn(3) != 0 || len(tombs) > (n0+inserted)/3) {
			inserted++
		} else {
			id := int32(rng.Intn(n0 + inserted))
			tombs[id] = struct{}{}
		}
		if step%40 == 39 {
			check("step")
		}
	}
	check("final")
}
