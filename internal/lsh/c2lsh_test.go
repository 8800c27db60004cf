package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"exploitbit/internal/dataset"
	"exploitbit/internal/vec"
)

func testDS(n, dim int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Config{Name: "t", N: n, Dim: dim, Clusters: 5, Std: 0.05, Seed: seed})
}

func bruteKNN(ds *dataset.Dataset, q []float32, k int) []int {
	top := vec.NewTopK(k)
	for i := 0; i < ds.Len(); i++ {
		top.Push(vec.Dist(q, ds.Point(i)), i)
	}
	ids, _ := top.Results()
	return ids
}

func TestCollisionProb(t *testing.T) {
	// p is a decreasing function of distance with p(0)=1.
	if got := collisionProb(0); got != 1 {
		t.Fatalf("p(0) = %v", got)
	}
	prev := 1.0
	for _, r := range []float64{0.25, 0.5, 1, 2, 4, 8} {
		p := collisionProb(r)
		if p <= 0 || p >= prev {
			t.Fatalf("p(%v) = %v not strictly decreasing below %v", r, p, prev)
		}
		prev = p
	}
	// Known anchor: p(1) ≈ 0.6827 - 2/sqrt(2π)(1-e^{-1/2}) ≈ 0.3695...
	// (exact value of the 2-stable collision probability at s=w).
	if p := collisionProb(1); math.Abs(p-0.3694) > 0.01 {
		t.Fatalf("p(1) = %v, expected ≈ 0.369", p)
	}
}

func TestBuildParameters(t *testing.T) {
	ds := testDS(2000, 16, 1)
	ix := Build(ds, Params{Seed: 2})
	if ix.M() < 8 || ix.M() > 96 {
		t.Fatalf("m = %d outside [8,96]", ix.M())
	}
	if ix.L() < 1 || ix.L() > ix.M() {
		t.Fatalf("l = %d outside [1,%d]", ix.L(), ix.M())
	}
	if ix.W() <= 0 {
		t.Fatalf("w = %v", ix.W())
	}
	// Threshold must sit strictly between p2·m and p1·m for the collision
	// counting to separate near from far points.
	p1, p2 := collisionProb(1), collisionProb(2)
	if f := float64(ix.L()) / float64(ix.M()); f <= p2 || f >= p1 {
		t.Fatalf("alpha = %v not in (p2=%v, p1=%v)", f, p2, p1)
	}
}

func TestCandidatesAreCApproximate(t *testing.T) {
	// C2LSH guarantees c-approximate kNN (here c=2): the k-th best distance
	// reachable within the candidate set must be at most c times the true
	// k-th distance, with high probability. Most true neighbors should also
	// appear directly.
	ds := testDS(3000, 24, 3)
	ix := Build(ds, Params{Seed: 4})
	rng := rand.New(rand.NewSource(5))
	k := 10
	hit, total, ratioOK := 0, 0, 0
	trials := 20
	for trial := 0; trial < trials; trial++ {
		q := ds.Point(rng.Intn(ds.Len()))
		res := ix.Candidates(q, k)
		if len(res.IDs) < k {
			t.Fatalf("trial %d: only %d candidates", trial, len(res.IDs))
		}
		in := make(map[int]bool, len(res.IDs))
		for _, id := range res.IDs {
			in[id] = true
		}
		trueNN := bruteKNN(ds, q, k)
		for _, id := range trueNN {
			total++
			if in[id] {
				hit++
			}
		}
		// k-th best candidate distance vs true k-th distance.
		top := vec.NewTopK(k)
		for _, id := range res.IDs {
			top.Push(vec.Dist(q, ds.Point(id)), id)
		}
		trueKth := vec.Dist(q, ds.Point(trueNN[k-1]))
		if top.Root() <= 2*trueKth+1e-12 {
			ratioOK++
		}
		if res.Radius < 1 || res.Dmax <= 0 {
			t.Fatalf("trial %d: radius %d dmax %v", trial, res.Radius, res.Dmax)
		}
	}
	if recall := float64(hit) / float64(total); recall < 0.75 {
		t.Fatalf("candidate recall %.2f < 0.75", recall)
	}
	// The 2-approximate guarantee holds with probability >= 1-δ = 0.9;
	// require at least 90% of trials to satisfy it.
	if ratioOK < trials*9/10 {
		t.Fatalf("c-approximate guarantee held in only %d/%d trials", ratioOK, trials)
	}
}

func TestCandidateSetSizeRespectsBeta(t *testing.T) {
	ds := testDS(2000, 16, 6)
	ix := Build(ds, Params{Beta: 0.05, Seed: 7})
	res := ix.Candidates(ds.Point(0), 10)
	// Collection stops once k + β·n found; one level's worth of overshoot
	// is possible (candidates arrive in batches per radius).
	if len(res.IDs) < 10 {
		t.Fatalf("too few candidates: %d", len(res.IDs))
	}
	if len(res.IDs) > 2000 {
		t.Fatalf("candidate set exceeds dataset")
	}
}

func TestCandidatesDeterministic(t *testing.T) {
	ds := testDS(1000, 8, 8)
	ix := Build(ds, Params{Seed: 9})
	q := ds.Point(42)
	a := ix.Candidates(q, 5)
	b := ix.Candidates(q, 5)
	if len(a.IDs) != len(b.IDs) || a.Radius != b.Radius {
		t.Fatal("same query produced different results")
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			t.Fatal("candidate order differs between runs")
		}
	}
}

func TestCandidatesNoDuplicates(t *testing.T) {
	ds := testDS(1500, 12, 10)
	ix := Build(ds, Params{Seed: 11})
	res := ix.Candidates(ds.Point(3), 10)
	seen := make(map[int]bool)
	for _, id := range res.IDs {
		if seen[id] {
			t.Fatalf("duplicate candidate %d", id)
		}
		seen[id] = true
		if id < 0 || id >= ds.Len() {
			t.Fatalf("candidate %d out of range", id)
		}
	}
}

func TestFallbackOnTinyDataset(t *testing.T) {
	ds := testDS(20, 4, 12)
	ix := Build(ds, Params{Seed: 13})
	res := ix.Candidates(ds.Point(0), 15)
	if len(res.IDs) < 15 {
		t.Fatalf("fallback did not pad: %d candidates", len(res.IDs))
	}
}

func TestQueryDimMismatchPanics(t *testing.T) {
	ds := testDS(100, 4, 14)
	ix := Build(ds, Params{Seed: 15})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Candidates([]float32{1, 2}, 1)
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 3}, {-7, 2, -4}, {-4, 2, -2}, {0, 5, 0}, {4, 4, 1}, {-1, 4, -1},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestVirtualRehashingWindowsGrow(t *testing.T) {
	// Radius growth must be geometric in C and candidates monotone: querying
	// with larger k cannot shrink the discovered radius.
	ds := testDS(2000, 16, 16)
	ix := Build(ds, Params{Seed: 17})
	q := ds.Point(1)
	small := ix.Candidates(q, 1)
	large := ix.Candidates(q, 50)
	if large.Radius < small.Radius {
		t.Fatalf("radius shrank with larger k: %d vs %d", large.Radius, small.Radius)
	}
	// Radii are powers of C (=2).
	for _, r := range []int{small.Radius, large.Radius} {
		if r&(r-1) != 0 {
			t.Fatalf("radius %d is not a power of 2", r)
		}
	}
}

// refScratch is the collision-counting state of referenceCandidates: the
// stamp/count pair the index used before the fused cell.
type refScratch struct {
	counts []int32
	stamp  []int32
	qid    int32
}

// referenceCandidates is the obviously-correct Phase 1: the body
// Index.Candidates had before the counting kernel, kept verbatim as the test
// oracle. It also reports how many collisions it counted.
func referenceCandidates(ix *Index, q []float32, k int) (Result, int) {
	if len(q) != ix.dim {
		panic(fmt.Sprintf("lsh: query dim %d != index dim %d", len(q), ix.dim))
	}
	sc := &refScratch{counts: make([]int32, ix.n), stamp: make([]int32, ix.n)}
	sc.qid++
	qid := sc.qid

	required := k + int(math.Ceil(ix.params.Beta*float64(ix.n)))
	if required > ix.n {
		required = ix.n
	}

	qv := make([]int64, ix.m)
	for h := 0; h < ix.m; h++ {
		qv[h] = ix.hashWith(ix.proj[h*ix.dim:(h+1)*ix.dim], ix.bias[h], q)
	}

	// Window state per hash function: [lo, hi) index range currently
	// counted, empty at start.
	lo := make([]int, ix.m)
	hi := make([]int, ix.m)
	for h := range lo {
		// Position of the R=1 window start.
		lo[h] = sort.Search(ix.n, func(i int) bool { return ix.vals[h][i] >= qv[h] })
		hi[h] = lo[h]
	}

	var cands []int
	collisions := 0
	count := func(h, idx int) {
		collisions++
		id := ix.ids[h][idx]
		if sc.stamp[id] != qid {
			sc.stamp[id] = qid
			sc.counts[id] = 0
		}
		sc.counts[id]++
		if int(sc.counts[id]) == ix.l && len(cands) < required {
			cands = append(cands, int(id))
		}
	}

	R := int64(1)
	c := int64(ix.params.C)
	for {
		exhausted := true
		for h := 0; h < ix.m; h++ {
			// Bucket window of q at radius R in hash-value space.
			wlo := floorDiv(qv[h], R) * R
			whi := wlo + R
			vs := ix.vals[h]
			for lo[h] > 0 && vs[lo[h]-1] >= wlo {
				lo[h]--
				count(h, lo[h])
			}
			for hi[h] < ix.n && vs[hi[h]] < whi {
				count(h, hi[h])
				hi[h]++
			}
			if canGrow(lo[h], hi[h], ix.n, wlo, whi) {
				exhausted = false
			}
		}
		if len(cands) >= required || exhausted {
			if len(cands) >= k || exhausted {
				if len(cands) < k {
					referenceFallback(ix, &cands, sc, qid, k)
				}
				return Result{IDs: cands, Radius: int(R), Dmax: float64(c) * float64(R) * ix.w}, collisions
			}
		}
		R *= c
	}
}

func referenceFallback(ix *Index, cands *[]int, sc *refScratch, qid int32, k int) {
	in := make(map[int]bool, len(*cands))
	for _, id := range *cands {
		in[id] = true
	}
	type pc struct {
		id int
		c  int32
	}
	var rest []pc
	for id := 0; id < ix.n; id++ {
		if in[id] {
			continue
		}
		var cnt int32
		if sc.stamp[id] == qid {
			cnt = sc.counts[id]
		}
		rest = append(rest, pc{id, cnt})
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].c != rest[j].c {
			return rest[i].c > rest[j].c
		}
		return rest[i].id < rest[j].id
	})
	for _, e := range rest {
		if len(*cands) >= k {
			break
		}
		*cands = append(*cands, e.id)
	}
}

// matchDS is a small clustered dataset for the equivalence sweep. With dup,
// two points in three repeat an earlier point exactly, so every hash
// function's sorted values carry long runs of ties.
func matchDS(n, dim int, seed int64, dup bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		if dup && i > 0 && i%3 != 0 {
			copy(row, data[rng.Intn(i)*dim:])
			continue
		}
		center := float64(rng.Intn(4)) * 0.25
		for j := range row {
			row[j] = float32(center + rng.NormFloat64()*0.05)
		}
	}
	return dataset.New("m", dim, data, vec.NewDomain(-1, 2, 1024))
}

// matchQueries returns queries on, near and far outside the data: the far
// ones hash to negative values, take many radius levels and end exhausted.
func matchQueries(ds *dataset.Dataset, rng *rand.Rand) [][]float32 {
	qs := [][]float32{ds.Point(0), ds.Point(ds.Len() - 1)}
	for _, far := range []float64{0, 0, 3, -40, 900} {
		src := ds.Point(rng.Intn(ds.Len()))
		q := make([]float32, ds.Dim)
		for j := range q {
			q[j] = float32(float64(src[j]) + rng.NormFloat64()*0.02 + far)
		}
		qs = append(qs, q)
	}
	return qs
}

// assertMatchesReference holds the kernel, on scratch sc and a reused dst,
// to the oracle: ids in discovery order, Radius and Dmax. It returns the
// result so callers can look at what the case exercised.
func assertMatchesReference(t testing.TB, ix *Index, sc *queryScratch, dst []int, q []float32, k int, label string) Result {
	t.Helper()
	want, _ := referenceCandidates(ix, q, k)
	got := ix.candidates(sc, dst, q, k)
	if got.Radius != want.Radius || got.Dmax != want.Dmax {
		t.Fatalf("%s: radius/dmax %d/%v, reference %d/%v", label, got.Radius, got.Dmax, want.Radius, want.Dmax)
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: %d candidates, reference %d", label, len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: candidate %d is %d, reference %d", label, i, got.IDs[i], want.IDs[i])
		}
	}
	return got
}

func TestCandidatesMatchReference(t *testing.T) {
	// What the sweep must reach, besides agreeing everywhere.
	var sawFallback, sawMultiLevel, sawEarlyStop, sawWideCount bool
	for _, n := range []int{1, 7, 200, 5000} {
		for _, dim := range []int{3, 16} {
			if n == 5000 && dim != 16 {
				continue
			}
			for _, dup := range []bool{false, true} {
				ds := matchDS(n, dim, int64(n+dim), dup)
				for _, beta := range []float64{0, 0.2, 1} {
					for _, c := range []int{2, 3} {
						for _, maxM := range []int{8, 96, 300} {
							p := Params{Beta: beta, C: c, MaxM: maxM, Seed: int64(maxM + c)}
							if maxM == 300 {
								p.Delta = 0.01 // asks for m > 255 at the default β
							}
							ix := Build(ds, p)
							sawWideCount = sawWideCount || ix.M() > 255
							sc := ix.newScratch()
							dst := make([]int, 0, 16)
							rng := rand.New(rand.NewSource(int64(n)))
							for qi, q := range matchQueries(ds, rng) {
								for _, k := range []int{1, 10, n + 3} {
									label := fmt.Sprintf("n=%d dim=%d dup=%v beta=%v c=%d m=%d q=%d k=%d", n, dim, dup, beta, c, ix.M(), qi, k)
									res := assertMatchesReference(t, ix, sc, dst, q, k, label)
									required := min(k+int(math.Ceil(ix.params.Beta*float64(n))), n)
									sawFallback = sawFallback || (k > n && len(res.IDs) == n)
									sawMultiLevel = sawMultiLevel || res.Radius > c*c*c
									sawEarlyStop = sawEarlyStop || (len(res.IDs) == required && required >= k && required < n)
								}
							}
						}
					}
				}
			}
		}
	}
	if !sawFallback || !sawMultiLevel || !sawEarlyStop || !sawWideCount {
		t.Fatalf("sweep missed a regime: fallback %v, multi-level %v, early stop %v, m>255 %v",
			sawFallback, sawMultiLevel, sawEarlyStop, sawWideCount)
	}
}

// FuzzCandidatesMatchReference folds arbitrary bytes into the sweep's ranges
// (n ≤ 600, dim ≤ 12, any k including negative and beyond n, the three β, C up
// to 5, MaxM up to 320, a query offset up to ±1e6) and holds the kernel to the
// oracle. The checked-in corpus is under testdata/fuzz.
func FuzzCandidatesMatchReference(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(8), int16(10), uint8(0), uint8(2), uint16(96), float32(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim uint8, k int16, betaSel, c uint8, maxM uint16, far float32, dup bool) {
		if math.IsNaN(float64(far)) || math.Abs(float64(far)) > 1e6 {
			far = 0
		}
		ds := matchDS(1+int(n)%600, 1+int(dim)%12, seed, dup)
		p := Params{Beta: []float64{0, 0.2, 1}[betaSel%3], C: int(c) % 6, MaxM: int(maxM) % 321, Seed: seed}
		if p.MaxM > 255 {
			p.Delta = 0.01
		}
		ix := Build(ds, p)
		sc := ix.newScratch()
		rng := rand.New(rand.NewSource(seed))
		q := make([]float32, ds.Dim)
		for j, v := range ds.Point(rng.Intn(ds.Len())) {
			q[j] = v + float32(rng.NormFloat64()*0.02) + far
		}
		var dst []int
		for _, kk := range []int{int(k), 1, ds.Len() + 1} {
			dst = assertMatchesReference(t, ix, sc, dst, q, kk, fmt.Sprintf("k=%d", kk)).IDs
		}
	})
}

// The epoch field of the fused cell wraps after 2^(32-bits) queries on one
// scratch; the wrap must clear the cells, not reinterpret old counts.
func TestCandidatesEpochWrap(t *testing.T) {
	ds := matchDS(400, 8, 21, true)
	ix := Build(ds, Params{Seed: 22})
	sc := ix.newScratch()
	qs := matchQueries(ds, rand.New(rand.NewSource(23)))
	assertMatchesReference(t, ix, sc, nil, qs[2], 10, "warm-up") // cells hold epoch-1 counts
	sc.epoch = math.MaxUint32>>ix.bits - 1
	for i, q := range qs[:4] {
		assertMatchesReference(t, ix, sc, nil, q, 10, fmt.Sprintf("query %d around the wrap", i))
	}
	if sc.epoch != 3 {
		t.Fatalf("epoch %d after wrapping, want 3 (limit, 1, 2, 3)", sc.epoch)
	}
}

// m > 255 does not fit a byte: the count field is sized from m at Build.
func TestCellCountFieldHoldsM(t *testing.T) {
	ds := matchDS(500, 8, 31, false)
	ix := Build(ds, Params{MaxM: 300, Beta: 0.01, Delta: 0.01, Seed: 32})
	if ix.M() <= 255 {
		t.Fatalf("m = %d, the case needs m > 255", ix.M())
	}
	if ix.M() >= 1<<ix.bits {
		t.Fatalf("count field of %d bits cannot hold m = %d", ix.bits, ix.M())
	}
	// A query on a data point collides with it under all m functions: its
	// count reaches m without spilling into the epoch.
	sc := ix.newScratch()
	for i := 0; i < 3; i++ {
		assertMatchesReference(t, ix, sc, nil, ds.Point(7), ds.Len()+1, "k > n: counting runs to exhaustion")
	}
	if cell := sc.cells[7]; cell != sc.epoch<<ix.bits|uint32(ix.M()) {
		t.Fatalf("cell of the queried point = epoch %d count %d, want epoch %d count %d",
			cell>>ix.bits, cell&(1<<ix.bits-1), sc.epoch, ix.M())
	}
}

// A caller that hands its id buffer back pays no allocation: the counting
// state is pooled, the query hash and windows live in it.
func TestCandidatesIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	ds := testDS(2000, 16, 51)
	ix := Build(ds, Params{Seed: 52})
	q := ds.Point(9)
	dst := ix.Candidates(q, 10).IDs
	if allocs := testing.AllocsPerRun(100, func() { dst = ix.CandidatesInto(dst, q, 10).IDs }); allocs != 0 {
		t.Fatalf("%v allocs per CandidatesInto with a reused buffer, want 0", allocs)
	}
}

// A query whose T1 is out of reach (k > n) over data whose hash values lie on
// both sides of zero used to grow R until it overflowed: no bucket, at any
// radius, spans zero. It must end exhausted, padded to n by fallback.
func TestCandidatesTerminateWhenT1Unreachable(t *testing.T) {
	ds := matchDS(50, 6, 61, false)
	ix := Build(ds, Params{Seed: 62})
	far := make([]float32, ds.Dim)
	for j := range far {
		far[j] = float32(40 * (j%2*2 - 1))
	}
	for _, q := range [][]float32{ds.Point(0), far} {
		res := ix.Candidates(q, ds.Len()+5)
		if len(res.IDs) != ds.Len() || res.Radius < 1 || res.Dmax <= 0 {
			t.Fatalf("%d candidates of %d, radius %d, dmax %v", len(res.IDs), ds.Len(), res.Radius, res.Dmax)
		}
	}
}

func TestCandidatesConcurrent(t *testing.T) {
	ds := matchDS(2000, 16, 41, true)
	ix := Build(ds, Params{Seed: 42})
	qs := matchQueries(ds, rand.New(rand.NewSource(43)))
	serial := make([]Result, len(qs))
	for i, q := range qs {
		serial[i] = ix.Candidates(q, 10)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []int
			for round := 0; round < 20; round++ {
				i := (round + g) % len(qs)
				got := ix.CandidatesInto(dst, qs[i], 10)
				dst = got.IDs
				if got.Radius != serial[i].Radius || got.Dmax != serial[i].Dmax || !slices.Equal(got.IDs, serial[i].IDs) {
					t.Errorf("goroutine %d query %d differs from the serial run", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
