package core

import (
	"context"
	"maps"
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
	return func(dst []int, q []float32, k int) ([]int, float64) {
		ids := dst[:0]
		dmax := 0.0
		for i := 0; i < n; i++ {
			ids = append(ids, i)
			if d := vec.Dist(q, ds.Point(i)); d > dmax {
				dmax = d
			}
		}
		return ids, dmax
	}
}

// mergeRow is one serving topology of the overlay suite (see servingRows): a
// base searcher over the first n0 points and a reference searcher rebuilt
// over the full folded dataset, both with all-covering candidates.
type mergeRow struct {
	name         string
	base, folded rowSearcher
}

// mergeWorld is the equivalence fixture: one dataset, workload and pair of
// profiles served on every topology of servingRows. rows[0] is the flat row.
type mergeWorld struct {
	full   *dataset.Dataset
	n0     int
	rows   []mergeRow
	qtest  [][]float32
	extras []MergePoint
}

func buildMergeWorld(t *testing.T, method Method, n, n0, dim int) *mergeWorld {
	t.Helper()
	full := dataset.Generate(dataset.Config{Name: "mrg", N: n, Dim: dim, Clusters: 5, Std: 0.05, Ndom: 256, Seed: 7})
	baseDS := dataset.New("mrg-base", dim, full.Data()[:n0*dim], full.Domain)
	log := dataset.GenLog(full, dataset.LogConfig{PoolSize: 40, Length: 200, ZipfS: 1.3, Perturb: 0.005, Seed: 8})
	wl, qtest := log.Split(16)

	mk := func(ds *dataset.Dataset, name string) ([]string, []rowSearcher) {
		pf, err := disk.BuildPointFile(filepath.Join(t.TempDir(), name), ds, nil, 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pf.Close() })
		cands := allCandsOf(ds, ds.Len())
		prof := BuildProfile(ds, cands, wl, 10)
		return servingRows(t, ds, pf, prof, cands, Config{Method: method, CacheBytes: 64 << 10, Tau: 6})
	}
	w := &mergeWorld{full: full, n0: n0, qtest: qtest}
	names, base := mk(baseDS, "base")
	_, folded := mk(full, "fold")
	for i, name := range names {
		w.rows = append(w.rows, mergeRow{name, base[i], folded[i]})
	}
	for i := n0; i < n; i++ {
		w.extras = append(w.extras, MergePoint{ID: int32(i), Vec: full.Point(i)})
	}
	return w
}

// searchRows runs one merged search on every row's base (or folded)
// searcher and holds the router rows to the flat row bit for bit — the same
// ids in the same order and the same Pruned/TrueHits/Remaining/PageReads —
// which is the bit-identity contract under a non-nil overlay. It returns the
// per-row ids.
func (w *mergeWorld) searchRows(t *testing.T, ctx string, folded bool, q []float32, k int, mg *Merge) [][]int {
	t.Helper()
	out := make([][]int, len(w.rows))
	var flatSt QueryStats
	for i, r := range w.rows {
		s := r.base
		if folded {
			s = r.folded
		}
		ids, st, err := s.SearchCtx(context.Background(), q, k, nil, mg)
		if err != nil {
			t.Fatalf("%s/%s: %v", r.name, ctx, err)
		}
		out[i] = ids
		if i == 0 {
			flatSt = st
			continue
		}
		if !sameIDs(out[0], ids) {
			t.Fatalf("%s/%s: ids %v, flat %v", r.name, ctx, ids, out[0])
		}
		if d := diffStats(flatSt, st); d != "" {
			t.Fatalf("%s/%s: stats differ from flat: %s", r.name, ctx, d)
		}
	}
	return out
}

// batchRows is the batch column of the suite: on every row, one coalesced
// SearchBatch of qs under mg must answer each member exactly as that row's
// own SearchCtx under the same mg does (the same ids in the same order), read
// no more pages in total than those singles, and — on the router rows — equal
// the flat row's batch bit for bit, ids and per-member statistics alike.
func (w *mergeWorld) batchRows(t *testing.T, ctx string, folded bool, qs [][]float32, k int, mg *Merge) {
	t.Helper()
	var flatIDs [][]int
	var flatSts []QueryStats
	for i, r := range w.rows {
		s := r.base
		if folded {
			s = r.folded
		}
		ids, sts, err := s.SearchBatch(context.Background(), qs, k, mg)
		if err != nil {
			t.Fatalf("%s/%s: batch: %v", r.name, ctx, err)
		}
		var batchReads, soloReads int64
		for j, q := range qs {
			solo, st, err := s.SearchCtx(context.Background(), q, k, nil, mg)
			if err != nil {
				t.Fatalf("%s/%s: q%d: %v", r.name, ctx, j, err)
			}
			if !sameIDs(ids[j], solo) {
				t.Fatalf("%s/%s: q%d: batch ids %v, single %v", r.name, ctx, j, ids[j], solo)
			}
			batchReads += sts[j].PageReads
			soloReads += st.PageReads
		}
		if batchReads > soloReads {
			t.Fatalf("%s/%s: batch read %d pages, the singles %d", r.name, ctx, batchReads, soloReads)
		}
		if i == 0 {
			flatIDs, flatSts = ids, sts
			continue
		}
		for j := range qs {
			if !sameIDs(flatIDs[j], ids[j]) {
				t.Fatalf("%s/%s: q%d: batch ids %v, flat %v", r.name, ctx, j, ids[j], flatIDs[j])
			}
			if d := diffStats(flatSts[j], sts[j]); d != "" {
				t.Fatalf("%s/%s: q%d: batch stats differ from flat: %s", r.name, ctx, j, d)
			}
		}
	}
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

// TestMergedSearchEquivalentToRebuild pins the live-ingest read invariant on
// every serving topology: a base searcher with the delta folded in through a
// Merge overlay returns ids identical to one rebuilt over the folded dataset.
// With tombstones, the rebuilt searcher keeps the tombstone mask (deleted
// points stay folded for id density), so the comparison is full overlay vs
// tombs-only overlay. The router rows are additionally held to the flat row
// bit for bit under each overlay (see searchRows), and every overlay shape is
// also posted as one batch (see batchRows).
func TestMergedSearchEquivalentToRebuild(t *testing.T) {
	for _, method := range []Method{Exact, HCO} {
		t.Run(string(method), func(t *testing.T) {
			w := buildMergeWorld(t, method, 600, 400, 8)
			k := 10

			// Tombstone a mix of base and delta ids.
			tombs := map[int64]struct{}{3: {}, 57: {}, 399: {}, 401: {}, 580: {}}
			extrasOnly := &Merge{Extra: w.extras}
			fullOverlay := &Merge{Extra: w.extras, Tombs: tombs}
			tombsOnly := &Merge{Tombs: tombs}

			for _, q := range w.qtest {
				// No tombstones: base+extras vs plain folded search.
				got := w.searchRows(t, "no-tombs", false, q, k, extrasOnly)
				want := w.searchRows(t, "plain-folded", true, q, k, nil)
				for i, r := range w.rows {
					idsEqual(t, method, r.name+"/no-tombs", got[i], want[i])
				}

				// With tombstones.
				got = w.searchRows(t, "tombs", false, q, k, fullOverlay)
				want = w.searchRows(t, "tombs-folded", true, q, k, tombsOnly)
				// Horizon skip: handing the folded searcher the full overlay —
				// extras it already contains — must change nothing. This is
				// what makes the overlay safe across an RCU engine swap.
				hz := w.searchRows(t, "horizon-skip", true, q, k, fullOverlay)
				for i, r := range w.rows {
					idsEqual(t, method, r.name+"/tombs", got[i], want[i])
					for _, id := range got[i] {
						if fullOverlay.dead(id) {
							t.Fatalf("%s: tombstoned id %d in results", r.name, id)
						}
					}
					idsEqual(t, method, r.name+"/horizon-skip", hz[i], want[i])
				}
			}

			w.batchRows(t, "batch/extras-only", false, w.qtest, k, extrasOnly)
			w.batchRows(t, "batch/tombs-only", false, w.qtest, k, tombsOnly)
			w.batchRows(t, "batch/full", false, w.qtest, k, fullOverlay)
			w.batchRows(t, "batch/horizon-skip", true, w.qtest, k, fullOverlay)
		})
	}
}

// TestMergedSearchRandomInterleavings drives a random insert/delete
// interleaving through the overlay and cross-checks every row's merged
// results against exact brute force over the surviving point set at several
// cuts; each cut's overlay also serves one batch (see batchRows).
func TestMergedSearchRandomInterleavings(t *testing.T) {
	const n, n0, dim, k = 700, 450, 8, 10
	w := buildMergeWorld(t, HCO, n, n0, dim)
	rng := rand.New(rand.NewSource(99))

	tombs := map[int64]struct{}{}
	inserted := 0
	check := func(step string) {
		t.Helper()
		// An overlay is a value: later deletes go into the next cut's copy.
		mg := &Merge{Extra: w.extras[:inserted], Tombs: maps.Clone(tombs)}
		w.batchRows(t, step+"/batch", false, w.qtest[:6], k, mg)
		for _, q := range w.qtest[:6] {
			got := w.searchRows(t, step, false, q, k, mg)
			// Brute-force reference over every live id.
			type cand struct {
				id int
				d  float64
			}
			var ref []cand
			for id := 0; id < n0+inserted; id++ {
				if mg.dead(id) {
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
			sort.Ints(want)
			for i, r := range w.rows {
				gs := append([]int(nil), got[i]...)
				sort.Ints(gs)
				if !reflect.DeepEqual(gs, want) {
					t.Fatalf("%s/%s: merged ids %v, brute force %v", r.name, step, gs, want)
				}
			}
		}
	}

	check("initial")
	for step := 0; step < 120; step++ {
		if inserted < len(w.extras) && (rng.Intn(3) != 0 || len(tombs) > (n0+inserted)/3) {
			inserted++
		} else {
			tombs[int64(rng.Intn(n0+inserted))] = struct{}{}
		}
		if step%40 == 39 {
			check("step")
		}
	}
	check("final")
}
