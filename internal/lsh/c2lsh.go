// Package lsh implements C2LSH (Gan, Feng, Fang, Ng — SIGMOD 2012), the
// state-of-the-art disk-based LSH method the paper uses as its candidate
// generation index I. C2LSH hashes points with 2-stable (Gaussian)
// projections, then answers a c-approximate kNN query by dynamic collision
// counting: a point becomes a candidate once it collides with the query in
// at least l of the m hash functions at the current search radius, and the
// radius grows geometrically via virtual rehashing (bucket coalescing) until
// enough candidates are found.
//
// The index structure (hash tables of point identifiers) lives in memory;
// candidate points themselves are fetched from the dataset file only during
// refinement, which is precisely the phase the paper's cache attacks.
package lsh

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"exploitbit/internal/dataset"
	"exploitbit/internal/vec"
)

// Params configures the index. Zero values select the defaults documented
// on each field.
type Params struct {
	// C is the approximation ratio (integer >= 2; default 2). The virtual
	// rehashing radius sequence is 1, C, C², …
	C int
	// Delta is the error probability δ (default 0.1).
	Delta float64
	// Beta is the allowed false-positive fraction β: candidate collection
	// stops once k + β·n candidates are found (default 100/n, per C2LSH).
	Beta float64
	// W is the projection quantization width w. Default: auto-tuned to the
	// mean nearest-neighbor distance of a data sample, so that radius R=1
	// roughly covers nearest neighbors.
	W float64
	// MaxM caps the number of hash functions (default 96). The Chernoff
	// bound of C2LSH may ask for more on easy parameter settings; capping
	// trades a little result quality for index size, which the paper's
	// relative comparisons are insensitive to.
	MaxM int
	// Seed drives projection sampling.
	Seed int64
}

func (p Params) withDefaults(n int) Params {
	if p.C < 2 {
		p.C = 2
	}
	if p.Delta <= 0 || p.Delta >= 1 {
		p.Delta = 0.1
	}
	if p.Beta <= 0 {
		p.Beta = 100 / float64(n)
	}
	if p.MaxM <= 0 {
		p.MaxM = 96
	}
	return p
}

// Index is a built C2LSH index.
type Index struct {
	params Params
	n, dim int
	m, l   int // hash count and collision threshold α·m
	w      float64

	proj []float64 // m×dim projection vectors
	bias []float64 // m offsets in [0, w)

	// Per hash function: point hash values sorted ascending, with ids.
	vals [][]int64
	ids  [][]int32

	// Per-query scratch, pooled so concurrent queries never share state.
	scratch sync.Pool
	bits    uint // width of a cell's count field: m < 1<<bits
}

// queryScratch is one query's working state: the collision cells (see
// counter) and, per hash function, the query's hash and counted window.
type queryScratch struct {
	cells  []uint32
	epoch  uint32
	qf     []float64 // q widened once
	qv     []int64
	lo, hi []int
}

// collisionProb is the 2-stable LSH collision probability p(r) for two
// points at distance s = r·w (Datar et al. 2004):
//
//	p(r) = 1 − 2Φ(−1/r) − (2r/√(2π)) (1 − e^{−1/(2r²)})
func collisionProb(r float64) float64 {
	if r <= 0 {
		return 1
	}
	return 1 - 2*normCDF(-1/r) - (2*r/math.Sqrt(2*math.Pi))*(1-math.Exp(-1/(2*r*r)))
}

func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Build constructs the index over ds.
func Build(ds *dataset.Dataset, p Params) *Index {
	n, dim := ds.Len(), ds.Dim
	p = p.withDefaults(n)
	rng := rand.New(rand.NewSource(p.Seed))

	w := p.W
	if w <= 0 {
		w = meanNNDistance(ds, rng)
	}

	// C2LSH parameter setting: with p1 = p(1), p2 = p(c),
	//   m = ⌈(√ln(2/β) + √ln(1/δ))² / (2(p1−p2)²)⌉,
	//   α = (√ln(2/β)·p1 + √ln(1/δ)·p2) / (√ln(2/β) + √ln(1/δ)).
	p1 := collisionProb(1)
	p2 := collisionProb(float64(p.C))
	zb := math.Sqrt(math.Log(2 / p.Beta))
	zd := math.Sqrt(math.Log(1 / p.Delta))
	m := int(math.Ceil((zb + zd) * (zb + zd) / (2 * (p1 - p2) * (p1 - p2))))
	if m < 8 {
		m = 8
	}
	if m > p.MaxM {
		m = p.MaxM
	}
	alpha := (zb*p1 + zd*p2) / (zb + zd)
	l := int(math.Ceil(alpha * float64(m)))
	if l < 1 {
		l = 1
	}
	if l > m {
		l = m
	}

	ix := &Index{
		params: p, n: n, dim: dim, m: m, l: l, w: w,
		proj: make([]float64, m*dim),
		bias: make([]float64, m),
		vals: make([][]int64, m),
		ids:  make([][]int32, m),
		bits: uint(bits.Len(uint(m))),
	}
	ix.scratch.New = func() any { return ix.newScratch() }
	for i := range ix.proj {
		ix.proj[i] = rng.NormFloat64()
	}
	for i := range ix.bias {
		ix.bias[i] = rng.Float64() * w
	}

	// Hash every point under every function; sort per function.
	type vi struct {
		v  int64
		id int32
	}
	buf := make([]vi, n)
	for h := 0; h < m; h++ {
		a := ix.proj[h*dim : (h+1)*dim]
		for i := 0; i < n; i++ {
			buf[i] = vi{v: ix.hashWith(a, ix.bias[h], ds.Point(i)), id: int32(i)}
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].v < buf[y].v })
		vs := make([]int64, n)
		is := make([]int32, n)
		for i, e := range buf {
			vs[i], is[i] = e.v, e.id
		}
		ix.vals[h], ix.ids[h] = vs, is
	}
	return ix
}

func meanNNDistance(ds *dataset.Dataset, rng *rand.Rand) float64 {
	sample := 64
	if ds.Len() < sample {
		sample = ds.Len()
	}
	pool := 256
	if ds.Len() < pool {
		pool = ds.Len()
	}
	var sum float64
	cnt := 0
	for s := 0; s < sample; s++ {
		i := rng.Intn(ds.Len())
		best := math.Inf(1)
		for t := 0; t < pool; t++ {
			j := rng.Intn(ds.Len())
			if i == j {
				continue
			}
			if d := vec.Dist(ds.Point(i), ds.Point(j)); d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			sum += best
			cnt++
		}
	}
	if cnt == 0 || sum == 0 {
		return 1
	}
	return sum / float64(cnt)
}

func (ix *Index) hashWith(a []float64, b float64, p []float32) int64 {
	var dot float64
	for j, v := range p {
		dot += a[j] * float64(v)
	}
	return int64(math.Floor((dot + b) / ix.w))
}

// M returns the number of hash functions in use.
func (ix *Index) M() int { return ix.m }

// L returns the collision-count threshold l = α·m.
func (ix *Index) L() int { return ix.l }

// W returns the projection quantization width.
func (ix *Index) W() float64 { return ix.w }

// SortedKeyOrdering returns the SK-LSH-style physical ordering of the
// dataset file (the "SortedKey" layout of the paper's Figure 9 experiment):
// points arranged by their compound hash key, here the first hash function's
// value, so that LSH-similar points land on nearby pages. The returned
// permutation maps point id → file slot (disk.BuildPointFile's format).
func (ix *Index) SortedKeyOrdering() []int {
	perm := make([]int, ix.n)
	for slot, id := range ix.ids[0] {
		perm[id] = slot
	}
	return perm
}

// Result of candidate generation for one query.
type Result struct {
	IDs    []int   // candidate identifiers, in discovery order
	Radius int     // final virtual-rehashing radius R
	Dmax   float64 // c·R·w, the (R,c)-guarantee distance bound of Theorem 3
}

// Candidates runs C2LSH candidate generation (Phase 1 of Algorithm 1) for
// query q: collision counting with virtual rehashing until k + β·n
// candidates are found or the radius exhausts the hash-value range.
// Safe for concurrent use: counting state is pooled per query.
func (ix *Index) Candidates(q []float32, k int) Result {
	return ix.CandidatesInto(nil, q, k)
}

// CandidatesInto is Candidates with the identifiers appended to dst[:0], so
// a caller that keeps dst between queries pays no allocation.
func (ix *Index) CandidatesInto(dst []int, q []float32, k int) Result {
	if len(q) != ix.dim {
		panic(fmt.Sprintf("lsh: query dim %d != index dim %d", len(q), ix.dim))
	}
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	return ix.candidates(sc, dst, q, k)
}

// candidates is the Phase-1 kernel, on a scratch nobody else is using.
func (ix *Index) candidates(sc *queryScratch, dst []int, q []float32, k int) Result {
	required := k + int(math.Ceil(ix.params.Beta*float64(ix.n)))
	if required > ix.n {
		required = ix.n
	}
	// A new epoch zeroes every count at once; the cells are cleared for real
	// only when the epoch field wraps.
	if sc.epoch++; sc.epoch > math.MaxUint32>>ix.bits {
		clear(sc.cells)
		sc.epoch = 1
	}
	base := sc.epoch << ix.bits
	ct := counter{cells: sc.cells, base: base, hit: base | uint32(ix.l), required: required, stopAt: required}
	if required < k {
		// Clipped to n < k: no stopping early, fallback ranks the points by
		// the partial counts of a query counted to exhaustion.
		ct.stopAt = -1
	}

	qv, lo, hi := sc.qv, sc.lo, sc.hi
	for j, v := range q {
		sc.qf[j] = float64(v)
	}
	for h := range qv {
		// Same summation order as hashWith, so every floor lands in the
		// bucket Build put the point in.
		var dot float64
		for j, a := range ix.proj[h*ix.dim : (h+1)*ix.dim] {
			dot += a * sc.qf[j]
		}
		qv[h] = int64(math.Floor((dot + ix.bias[h]) / ix.w))
		// Window [lo, hi) of positions counted so far: empty, at q's bucket.
		lo[h] = lowerBound(ix.vals[h], qv[h])
		hi[h] = lo[h]
	}

	cands := dst[:0]
	c := int64(ix.params.C)
	for R := int64(1); ; R *= c {
		res := Result{Radius: int(R), Dmax: float64(c) * float64(R) * ix.w}
		exhausted := true
		for h, vs := range ix.vals {
			// Bucket window of q at radius R in hash-value space. Windows
			// nest from level to level, so each level counts the positions
			// its two edges moved over: downwards from lo, then upwards
			// from hi — the discovery order.
			wlo := floorDiv(qv[h], R) * R
			oldLo, oldHi := lo[h], hi[h]
			newLo := lowerBound(vs[:oldLo], wlo)
			newHi := oldHi + lowerBound(vs[oldHi:], wlo+R)
			lo[h], hi[h] = newLo, newHi
			if canGrow(newLo, newHi, ix.n, wlo, wlo+R) {
				exhausted = false
			}
			var stop bool
			if cands, stop = ct.run(cands, ix.ids[h][newLo:oldLo], true); !stop {
				cands, stop = ct.run(cands, ix.ids[h][oldHi:newHi], false)
			}
			if stop {
				res.IDs = cands
				return res
			}
		}
		if exhausted || (len(cands) >= required && len(cands) >= k) {
			if len(cands) < k {
				cands = ix.fallback(cands, ct, k)
			}
			res.IDs = cands
			return res
		}
	}
}

// counter is one query's view of the collision cells: one cell per point id,
// epoch<<bits | count, so a collision reads and writes one word and a cell
// below base — last written by an earlier query — counts as zero.
type counter struct {
	cells     []uint32
	base, hit uint32 // this query's epoch<<bits, and base | l: the cell value that admits its id
	required  int    // admissions stop at this many candidates (k + β·n)
	stopAt    int    // and there the query stops: required, or -1 for never
}

// run counts one collision for each id of a run of window positions, last to
// first if down, and admits an id the moment its count reaches l. It reports
// true when the query stops (see admit).
func (ct counter) run(cands []int, ids []int32, down bool) (_ []int, stop bool) {
	cells, base, hit := ct.cells, ct.base, ct.hit
	// Two loops the compiler can keep in registers and free of bounds checks
	// on ids; a single loop with a signed step runs 15-50 % slower, depending
	// on where the linker happens to place it.
	if down {
		for i := len(ids) - 1; i >= 0; i-- {
			id := ids[i]
			cell := max(cells[id], base) + 1
			cells[id] = cell
			if cell == hit {
				if cands, stop = ct.admit(cands, id); stop {
					return cands, true
				}
			}
		}
		return cands, false
	}
	for _, id := range ids {
		cell := max(cells[id], base) + 1
		cells[id] = cell
		if cell == hit {
			if cands, stop = ct.admit(cands, id); stop {
				return cands, true
			}
		}
	}
	return cands, false
}

// admit appends an id whose count reached l, unless k + β·n candidates have
// been collected already. It reports true at terminating condition T1 of
// C2LSH: once they have, the query stops — mid-level, mid-run. Later
// threshold-crossers were never admitted and the level would end by returning
// this radius anyway, so nothing the caller sees depends on the collisions
// skipped. T1 keeps |C(q)| at the scale the paper reports (hundreds) instead
// of ballooning on coarse radius doublings over small datasets.
func (ct counter) admit(cands []int, id int32) ([]int, bool) {
	if len(cands) >= ct.required {
		return cands, false
	}
	cands = append(cands, int(id))
	return cands, len(cands) == ct.stopAt
}

func (ix *Index) newScratch() *queryScratch {
	return &queryScratch{
		cells: make([]uint32, ix.n),
		qf:    make([]float64, ix.dim), qv: make([]int64, ix.m), lo: make([]int, ix.m), hi: make([]int, ix.m),
	}
}

// canGrow reports whether the counted window [lo, hi) of a hash function
// with n values can still reach uncounted positions at a larger radius. An
// edge at hash value 0 is pinned for good — buckets are aligned at multiples
// of R, so no radius carries q's bucket across zero — and values beyond it
// are out of reach: without this a query whose T1 is unreachable (k > n, or
// β·n points that cannot all collide) would grow R until it overflows.
func canGrow(lo, hi, n int, wlo, whi int64) bool {
	return (lo > 0 && wlo != 0) || (hi < n && whi != 0)
}

// lowerBound returns the first index of ascending vs whose value is >= x
// (len(vs) if none). The halving step is a conditional add, not a branch.
func lowerBound(vs []int64, x int64) int {
	i, n := 0, len(vs)
	for n > 1 {
		half := n >> 1
		if vs[i+half-1] < x {
			i += half
		}
		n -= half
	}
	if n == 1 && vs[i] < x {
		i++
	}
	return i
}

// fallback pads the candidate set up to k ids when collision counting alone
// cannot reach the threshold (tiny datasets, extreme parameters): points
// with the highest partial collision counts first, then arbitrary ids.
func (ix *Index) fallback(cands []int, ct counter, k int) []int {
	in := make(map[int]bool, len(cands))
	for _, id := range cands {
		in[id] = true
	}
	type pc struct {
		id int
		c  uint32
	}
	var rest []pc
	for id := 0; id < ix.n; id++ {
		if in[id] {
			continue
		}
		rest = append(rest, pc{id, max(ct.cells[id], ct.base) - ct.base})
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].c != rest[j].c {
			return rest[i].c > rest[j].c
		}
		return rest[i].id < rest[j].id
	})
	for _, e := range rest {
		if len(cands) >= k {
			break
		}
		cands = append(cands, e.id)
	}
	return cands
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
