package multistep

import (
	"errors"
	"math"
	"sort"
	"testing"
	"time"

	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/vec"
)

// diskWorld is a real point file on a fault-injectable device, the substrate
// for the fault-injection sweep of the refinement paths.
type diskWorld struct {
	ds *dataset.Dataset
	pf *disk.PointFile
}

func buildDiskWorld(t *testing.T, n, dim int) *diskWorld {
	t.Helper()
	ds := dataset.Generate(dataset.Config{Name: "t", N: n, Dim: dim, Clusters: 3, Seed: 7})
	pf, err := disk.BuildPointFile(t.TempDir()+"/pf", ds, nil, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return &diskWorld{ds: ds, pf: pf}
}

func (w *diskWorld) fetch() Fetch {
	buf := make([]float32, w.ds.Dim)
	return func(id int) ([]float32, error) { return w.pf.Fetch(id, buf) }
}

func (w *diskWorld) query() []float32 {
	q := make([]float32, w.ds.Dim)
	copy(q, w.ds.Point(0))
	q[0] += 0.01
	return q
}

func (w *diskWorld) allCandidates() []Candidate {
	cands := make([]Candidate, w.ds.Len())
	for i := range cands {
		cands[i] = Candidate{ID: i, LB: 0, UB: math.Inf(1)}
	}
	return cands
}

func (w *diskWorld) bruteKNN(q []float32, k int, exclude func(id int) bool) []Result {
	var rs []Result
	for i := 0; i < w.ds.Len(); i++ {
		if exclude != nil && exclude(i) {
			continue
		}
		rs = append(rs, Result{ID: i, Dist: vec.Dist(q, w.ds.Point(i))})
	}
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Dist != rs[b].Dist {
			return rs[a].Dist < rs[b].Dist
		}
		return rs[a].ID < rs[b].ID
	})
	if len(rs) > k {
		rs = rs[:k]
	}
	return rs
}

func sameResults(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-6 {
			t.Fatalf("result %d: got {%d %.6f}, want {%d %.6f}",
				i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestSearchFaultSweepTransient: with transient faults injected at p=0.05 and
// retry enabled, every refinement succeeds with results identical to the
// clean run and PageReads accounting that stays exact (logical reads only).
func TestSearchFaultSweepTransient(t *testing.T) {
	w := buildDiskWorld(t, 96, 16)
	q := w.query()
	const k = 5

	var sc Scratch
	clean, cleanFetched, err := sc.SearchSq(q, w.allCandidates(), k, w.fetch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanStats := w.pf.Stats()
	if cleanStats.PageReads != int64(cleanFetched*w.pf.PagesPerPoint()) {
		t.Fatalf("clean accounting: fetched %d, PageReads %d", cleanFetched, cleanStats.PageReads)
	}

	w.pf.SetRetry(disk.RetryPolicy{MaxRetries: 20, Backoff: time.Microsecond, MaxBackoff: 50 * time.Microsecond})
	defer w.pf.SetRetry(disk.RetryPolicy{})
	sawRetry := false
	for seed := int64(1); seed <= 8; seed++ {
		w.pf.ResetStats()
		w.pf.SetFaults(disk.NewInjector(disk.FaultPolicy{Seed: seed, Rules: []disk.FaultRule{
			{Kind: disk.FaultError, FirstPage: 0, LastPage: -1, Probability: 0.05, Transient: true},
			{Kind: disk.FaultTorn, FirstPage: 0, LastPage: -1, Probability: 0.02, Transient: true},
		}}))
		got, fetched, err := sc.SearchSq(q, w.allCandidates(), k, w.fetch(), nil)
		if err != nil {
			t.Fatalf("seed %d: transient faults with retry must not fail: %v", seed, err)
		}
		sameResults(t, got, clean)
		st := w.pf.Stats()
		if fetched != cleanFetched {
			t.Fatalf("seed %d: fetched %d != clean %d", seed, fetched, cleanFetched)
		}
		if st.PageReads != cleanStats.PageReads {
			t.Fatalf("seed %d: PageReads %d != clean %d (retries must not inflate logical reads)",
				seed, st.PageReads, cleanStats.PageReads)
		}
		if st.Retries > 0 {
			sawRetry = true
			if st.TransientErrors < st.Retries {
				t.Fatalf("seed %d: %d retries but only %d transient errors", seed, st.Retries, st.TransientErrors)
			}
		}
	}
	w.pf.SetFaults(nil)
	if !sawRetry {
		t.Fatal("sweep never exercised a retry — injection rate too low for the test to mean anything")
	}
}

// TestSearchPermanentFaultAborts: an unretryable fault must abort the search
// with a typed error — never surface a partial result set as complete.
func TestSearchPermanentFaultAborts(t *testing.T) {
	w := buildDiskWorld(t, 96, 16)
	q := w.query()

	// Fail the page of the true nearest neighbor permanently.
	want := w.bruteKNN(q, 1, nil)
	page, err := w.pf.PageOf(want[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	w.pf.SetFaults(disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{
		{Kind: disk.FaultError, FirstPage: page, LastPage: page, Transient: false},
	}}))
	w.pf.SetRetry(disk.RetryPolicy{MaxRetries: 5, Backoff: time.Microsecond})

	var sc Scratch
	got, _, err := sc.SearchSq(q, w.allCandidates(), 3, w.fetch(), nil)
	if err == nil {
		t.Fatalf("permanent fault must abort, got results %v", got)
	}
	if !disk.IsPermanent(err) {
		t.Fatalf("error should stay typed through the refinement path: %v", err)
	}
	if w.pf.Stats().Retries != 0 {
		t.Fatal("permanent faults must not be retried")
	}
	if len(got) != 0 {
		t.Fatalf("aborted search leaked %d results", len(got))
	}
}

// TestSearchSkipCandidate: a fetcher dropping candidates with
// ErrSkipCandidate (degraded mode) yields exactly the kNN over the remaining
// points, with skipped fetches not counted as refinement I/O.
func TestSearchSkipCandidate(t *testing.T) {
	w := buildDiskWorld(t, 96, 16)
	q := w.query()
	const k = 5

	// Drop every point whose id is ≡ 0 (mod 3) — including the seed point 0,
	// so the skip path is exercised on the best candidate.
	skipped := func(id int) bool { return id%3 == 0 }
	inner := w.fetch()
	skips := 0
	fetch := func(id int) ([]float32, error) {
		if skipped(id) {
			skips++
			return nil, ErrSkipCandidate
		}
		return inner(id)
	}

	var sc Scratch
	got, fetched, err := sc.SearchSq(q, w.allCandidates(), k, Fetch(fetch), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, w.bruteKNN(q, k, skipped))
	if skips == 0 {
		t.Fatal("skip path not exercised")
	}
	st := w.pf.Stats()
	if st.PageReads != int64(fetched*w.pf.PagesPerPoint()) {
		t.Fatalf("fetched %d but PageReads %d — skipped candidates must not be charged",
			fetched, st.PageReads)
	}

	// Wrapped sentinel must behave identically.
	wrapped := func(id int) ([]float32, error) {
		if skipped(id) {
			return nil, errors.Join(errors.New("shard 2 quarantined"), ErrSkipCandidate)
		}
		return inner(id)
	}
	got2, _, err := sc.SearchSq(q, w.allCandidates(), k, Fetch(wrapped), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got2, got)
}

// groupWorld maps the disk world onto group-granular fetching: each data page
// is a group.
func (w *diskWorld) groupFetch(t *testing.T, failPages map[int32]bool) (GroupFetch, *int) {
	q := w.query()
	loads := 0
	fetch := func(group int32) ([]int32, []float64, error) {
		if failPages[group] {
			return nil, nil, ErrSkipCandidate
		}
		loads++
		var ids []int32
		var sq []float64
		for i := 0; i < w.ds.Len(); i++ {
			p, err := w.pf.PageOf(i)
			if err != nil {
				return nil, nil, err
			}
			if int32(p) == group {
				ids = append(ids, int32(i))
				sq = append(sq, vec.SqDist(q, w.ds.Point(i)))
			}
		}
		return ids, sq, nil
	}
	return fetch, &loads
}

func (w *diskWorld) groupPending(t *testing.T) []GroupCandidate {
	t.Helper()
	pending := make([]GroupCandidate, w.ds.Len())
	for i := range pending {
		p, err := w.pf.PageOf(i)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = GroupCandidate{ID: int32(i), Group: int32(p), LBSq: 0}
	}
	return pending
}

// TestSearchGroupsSqSkipGroup: a dropped group excludes exactly its members
// and is attempted only once; loads count only successful reads.
func TestSearchGroupsSqSkipGroup(t *testing.T) {
	w := buildDiskWorld(t, 96, 16)
	q := w.query()
	const k = 5
	pending := w.groupPending(t)

	badPage, err := w.pf.PageOf(0)
	if err != nil {
		t.Fatal(err)
	}
	fail := map[int32]bool{int32(badPage): true}
	fetch, loads := w.groupFetch(t, fail)

	var sc Scratch
	got, gotLoads, err := sc.SearchGroupsSq(nil, pending, k, nil, fetch, nil)
	if err != nil {
		t.Fatal(err)
	}
	exclude := func(id int) bool {
		p, _ := w.pf.PageOf(id)
		return int32(p) == int32(badPage)
	}
	sameResults(t, got, w.bruteKNN(q, k, exclude))
	if gotLoads != *loads {
		t.Fatalf("reported loads %d != actual %d — skipped groups must not count", gotLoads, *loads)
	}
}

// TestSearchBatchSqSkipUnit: a failed unit is skipped by every query that
// demands it, attempted once, and excluded from the load count; surviving
// units still coalesce.
func TestSearchBatchSqSkipUnit(t *testing.T) {
	w := buildDiskWorld(t, 96, 16)
	const k = 5
	q1 := w.query()
	q2 := make([]float32, w.ds.Dim)
	copy(q2, w.ds.Point(1))
	q2[0] -= 0.01

	badPage, err := w.pf.PageOf(0)
	if err != nil {
		t.Fatal(err)
	}
	attempts := 0
	loads := 0
	fetch := func(unit int32, item int) ([]int32, [][]float32, error) {
		if unit == int32(badPage) {
			attempts++
			return nil, nil, ErrSkipCandidate
		}
		loads++
		var ids []int32
		var pts [][]float32
		for i := 0; i < w.ds.Len(); i++ {
			p, err := w.pf.PageOf(i)
			if err != nil {
				return nil, nil, err
			}
			if int32(p) == unit {
				ids = append(ids, int32(i))
				pt := make([]float32, w.ds.Dim)
				copy(pt, w.ds.Point(i))
				pts = append(pts, pt)
			}
		}
		return ids, pts, nil
	}

	pending := w.groupPending(t)
	items := []BatchQuery{
		{Q: q1, Pending: pending, K: k},
		{Q: q2, Pending: pending, K: k},
	}
	out, gotLoads, err := SearchBatchSq(items, fetch)
	if err != nil {
		t.Fatal(err)
	}
	exclude := func(id int) bool {
		p, _ := w.pf.PageOf(id)
		return int32(p) == int32(badPage)
	}
	sameResults(t, out[0], w.bruteKNN(q1, k, exclude))
	sameResults(t, out[1], w.bruteKNN(q2, k, exclude))
	if attempts != 1 {
		t.Fatalf("failed unit attempted %d times, want 1 (failure must be cached)", attempts)
	}
	if gotLoads != loads {
		t.Fatalf("reported loads %d != actual %d", gotLoads, loads)
	}
}

// TestSearchBatchSqPermanentAborts: a non-skip fetch error aborts the whole
// batch rather than returning partial result sets.
func TestSearchBatchSqPermanentAborts(t *testing.T) {
	w := buildDiskWorld(t, 48, 16)
	boom := errors.New("boom")
	fetch := func(unit int32, item int) ([]int32, [][]float32, error) {
		return nil, nil, boom
	}
	items := []BatchQuery{{Q: w.query(), Pending: w.groupPending(t), K: 3}}
	out, _, err := SearchBatchSq(items, fetch)
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped fetch error, got %v", err)
	}
	if out != nil {
		t.Fatal("aborted batch leaked results")
	}
}
