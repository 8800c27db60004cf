package core

import (
	"fmt"
	"testing"
)

// TestSlabEquivalence pins the slab-packed reduction against the map-backed
// reference path (Config.noSlab) bit for bit: identical result identifiers in
// identical order and identical per-query statistics — Candidates, Hits,
// Pruned, TrueHits, Remaining, Fetched, PageReads — across methods, LUT
// gating, serial vs parallel reduction and several k. The early-abandon
// threshold of the blocked kernel must be invisible here; see slabReduceRange
// for the argument why.
func TestSlabEquivalence(t *testing.T) {
	w := buildWorld(t, 1500, 12, 77)
	type variant struct {
		name string
		cfg  Config
		ks   []int
	}
	variants := []variant{
		{"hco-lut", Config{Method: HCO, CacheBytes: 64 << 10, Tau: 7, lutMinCandidates: 1}, []int{1, 5, 10}},
		{"hco-nolut", Config{Method: HCO, CacheBytes: 64 << 10, Tau: 7, lutMinCandidates: -1}, []int{5}},
		{"hco-parallel", Config{Method: HCO, CacheBytes: 64 << 10, Tau: 7, lutMinCandidates: 1, parallelReduceThreshold: 1}, []int{5}},
		{"hcd-tau8", Config{Method: HCD, CacheBytes: 96 << 10, Tau: 8}, []int{5}},
		{"ihco", Config{Method: IHCO, CacheBytes: 64 << 10, Tau: 6}, []int{5}},
		{"cva", Config{Method: CVA, CacheBytes: 32 << 10}, []int{5}},
		{"hco-notruehit", Config{Method: HCO, CacheBytes: 64 << 10, Tau: 7, NoTrueHitDetection: true}, []int{5}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			slabEng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if slabEng.slab == nil {
				t.Fatal("expected the slab layout for an HFF engine")
			}
			mapCfg := v.cfg
			mapCfg.noSlab = true
			mapEng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), mapCfg)
			if err != nil {
				t.Fatal(err)
			}
			if mapEng.approx == nil {
				t.Fatal("expected the map layout under noSlab")
			}
			if got, want := slabEng.CacheLen(), mapEng.CacheLen(); got != want {
				t.Fatalf("slab caches %d items, map %d", got, want)
			}
			for _, k := range v.ks {
				for qi, q := range w.qtest {
					wantIDs, wantSt, err := mapEng.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					gotIDs, gotSt, err := slabEng.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
						t.Fatalf("k=%d query %d: slab ids %v, map ids %v", k, qi, gotIDs, wantIDs)
					}
					if gotSt.Candidates != wantSt.Candidates || gotSt.Hits != wantSt.Hits ||
						gotSt.Pruned != wantSt.Pruned || gotSt.TrueHits != wantSt.TrueHits ||
						gotSt.Remaining != wantSt.Remaining || gotSt.Fetched != wantSt.Fetched ||
						gotSt.PageReads != wantSt.PageReads || gotSt.UsedLUT != wantSt.UsedLUT {
						t.Fatalf("k=%d query %d: slab stats %+v, map stats %+v", k, qi, gotSt, wantSt)
					}
				}
			}
		})
	}
}

// TestSlabEquivalenceEagerBuildsMap: the footnote-6 ablation scores candidates one
// at a time with disk reads in between, which the blocked slab kernel cannot
// do, so an eager engine is built over the map cache and Phase 2 dispatches on
// the layout alone.
func TestSlabEquivalenceEagerBuildsMap(t *testing.T) {
	w := buildWorld(t, 1500, 12, 77)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 64 << 10, Tau: 7, EagerFetchMisses: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.slab != nil || eng.approx == nil {
		t.Fatal("an eager-fetch engine must keep its codes in the map cache")
	}
	_, st, err := eng.Search(w.qtest[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fetched < st.Candidates-st.Hits {
		t.Fatalf("eager fetch read %d points for %d misses", st.Fetched, st.Candidates-st.Hits)
	}
}

// TestSlabKeysMatchMap pins the admitted cache content itself: the slab must
// hold exactly the ids the map-backed FillHFF admits, in the same Keys()
// order (ascending), so either layout caches the same content.
func TestSlabKeysMatchMap(t *testing.T) {
	w := buildWorld(t, 1000, 10, 78)
	cfg := Config{Method: HCO, CacheBytes: 48 << 10, Tau: 7}
	slabEng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.noSlab = true
	mapEng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := slabEng.slab.Keys(), mapEng.approx.Keys()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("slab keys %v, map keys %v", got, want)
	}
	// The packed words must match the map payloads verbatim.
	for _, id := range want {
		words, _ := mapEng.approx.Get(id)
		slot := slabEng.slab.SlotOf(id)
		if slot < 0 {
			t.Fatalf("id %d missing from slab", id)
		}
		if fmt.Sprint(slabEng.slab.Words(slot)) != fmt.Sprint(words) {
			t.Fatalf("id %d: slab words differ from map words", id)
		}
	}
}
