// Package bounds derives the conservative lower and upper distance bounds of
// Section 3.2 from encoded (approximate) points: every bucket code pins the
// original coordinate inside a real interval, so the code array pins the
// point inside a bounding rectangle, and
//
//	dist⁻_q(p′) ≤ dist_q(p) ≤ dist⁺_q(p′)
//
// always holds. Those bounds power the early-pruning and true-result
// detection of Algorithm 1.
package bounds

import (
	"math"

	"exploitbit/internal/encoding"
	"exploitbit/internal/histogram"
	"exploitbit/internal/vec"
)

// Table precomputes, once per histogram, the real-valued edges of every
// bucket so per-candidate bound computation is a couple of array lookups per
// dimension. It serves both global histograms (one shared edge table) and
// per-dimension histograms (one edge table per dimension).
type Table struct {
	dim    int
	shared bool
	loEdge [][]float64 // [1][B] when shared, else [dim][B]
	hiEdge [][]float64
}

// NewTable builds the edge table for a global histogram over domain dom,
// for dim-dimensional points.
func NewTable(h *histogram.Histogram, dom vec.Domain, dim int) *Table {
	lo, hi := edges(h, dom)
	return &Table{dim: dim, shared: true, loEdge: [][]float64{lo}, hiEdge: [][]float64{hi}}
}

// NewTablePerDim builds edge tables for an individual-dimension histogram.
func NewTablePerDim(p *histogram.PerDim, dom vec.Domain) *Table {
	t := &Table{dim: p.Dim(), loEdge: make([][]float64, p.Dim()), hiEdge: make([][]float64, p.Dim())}
	for j, h := range p.H {
		t.loEdge[j], t.hiEdge[j] = edges(h, dom)
	}
	return t
}

func edges(h *histogram.Histogram, dom vec.Domain) (lo, hi []float64) {
	lo = make([]float64, h.B())
	hi = make([]float64, h.B())
	for b := 0; b < h.B(); b++ {
		l, u := h.Interval(b)
		lo[b] = dom.BinLo(l)
		hi[b] = dom.BinHi(u)
	}
	return lo, hi
}

// Dim returns the dimensionality the table serves.
func (t *Table) Dim() int { return t.dim }

func (t *Table) edgesFor(j int) (lo, hi []float64) {
	if t.shared {
		return t.loEdge[0], t.hiEdge[0]
	}
	return t.loEdge[j], t.hiEdge[j]
}

// contrib computes one dimension's squared contributions to the lower and
// upper bound: the squared distance to the nearest edge (zero when q lies
// inside the bucket interval) and to the farther corner. Every bound in this
// package — reference, packed and LUT — sums exactly these terms in
// dimension order, which is what makes the fast paths bitwise-identical to
// the reference.
func contrib(qj, l, u float64) (loSq, upSq float64) {
	return contribLo(qj, l, u), contribUp(qj, l, u)
}

// contribLo is the lower-bound half of contrib. The fused Phase-2 kernel
// computes lower bounds for every candidate but upper bounds only for the
// survivors, so the two halves are split; the arithmetic is the same terms in
// the same order, keeping the split paths bitwise-identical to contrib.
func contribLo(qj, l, u float64) (loSq float64) {
	dl, du := qj-l, u-qj // distances to the near edges (sign-aware)
	if dl < 0 {          // q left of interval
		return dl * dl
	}
	if du < 0 { // q right of interval
		return du * du
	}
	return 0
}

// contribUp is the upper-bound half of contrib: squared distance to the
// farther corner of the interval.
func contribUp(qj, l, u float64) (upSq float64) {
	dl, du := qj-l, u-qj
	a, b := math.Abs(dl), math.Abs(du)
	far := a
	if b > far {
		far = b
	}
	return far * far
}

// Bounds computes (dist⁻, dist⁺) of the encoded point codes from query q.
func (t *Table) Bounds(q []float32, codes []int) (lb, ub float64) {
	sLo, sUp := t.BoundsSq(q, codes)
	return math.Sqrt(sLo), math.Sqrt(sUp)
}

// BoundsSq is Bounds without the final square roots. Algorithm 1 only
// compares bounds against each other and against exact distances, so the
// engine works in squared space throughout and defers sqrt until (and
// unless) a real distance is needed.
func (t *Table) BoundsSq(q []float32, codes []int) (lbSq, ubSq float64) {
	var sLo, sUp float64
	for j, code := range codes {
		loE, hiE := t.edgesFor(j)
		lo, up := contrib(float64(q[j]), loE[code], hiE[code])
		sLo += lo
		sUp += up
	}
	return sLo, sUp
}

// BoundsPacked computes bounds directly from a packed word array, avoiding
// an intermediate decode.
func (t *Table) BoundsPacked(q []float32, words []uint64, c encoding.Codec) (lb, ub float64) {
	sLo, sUp := t.BoundsSqPacked(q, words, c)
	return math.Sqrt(sLo), math.Sqrt(sUp)
}

// BoundsSqPacked is BoundsPacked in squared space — the reference
// implementation that QueryLUT must agree with exactly.
func (t *Table) BoundsSqPacked(q []float32, words []uint64, c encoding.Codec) (lbSq, ubSq float64) {
	var sLo, sUp float64
	for j := 0; j < t.dim; j++ {
		code := c.At(words, j)
		loE, hiE := t.edgesFor(j)
		lo, up := contrib(float64(q[j]), loE[code], hiE[code])
		sLo += lo
		sUp += up
	}
	return sLo, sUp
}

// LowerSqPacked computes only the squared lower bound of a packed point —
// the first half of the fused kernel's lower-then-maybe-upper split. It sums
// the same contribLo terms in the same dimension order as BoundsSqPacked, so
// the result is bitwise-identical to that function's lbSq.
func (t *Table) LowerSqPacked(q []float32, words []uint64, c encoding.Codec) (lbSq float64) {
	return t.LowerSqPackedThresh(q, words, c, math.Inf(1))
}

// LowerSqPackedThresh is LowerSqPacked with scan abandonment: the per-
// dimension terms are non-negative, so the partial sum only grows, and once
// it exceeds thr the caller's verdict ("this candidate prunes") is already
// sealed — the remaining dimensions are skipped and the partial sum is
// returned. Any return value v satisfies either v = the exact lower bound
// (scan completed) or thr < v ≤ the exact lower bound (abandoned); Phase 2's
// bit-identity argument (see core's slabReduceRange) covers both. The
// byte-aligned widths walk words directly like the LUT fast paths.
func (t *Table) LowerSqPackedThresh(q []float32, words []uint64, c encoding.Codec, thr float64) (lbSq float64) {
	switch c.Tau() {
	case 8:
		return t.lowerSqThresh8(q, words, thr)
	case 16:
		return t.lowerSqThresh16(q, words, thr)
	}
	var sLo float64
	for j := 0; j < t.dim; j++ {
		code := c.At(words, j)
		loE, hiE := t.edgesFor(j)
		sLo += contribLo(float64(q[j]), loE[code], hiE[code])
		if sLo > thr {
			return sLo
		}
	}
	return sLo
}

func (t *Table) lowerSqThresh8(q []float32, words []uint64, thr float64) (lbSq float64) {
	var sLo float64
	j := 0
	for _, w := range words {
		for k := 0; k < 8 && j < t.dim; k++ {
			code := int(w & 0xFF)
			w >>= 8
			loE, hiE := t.edgesFor(j)
			sLo += contribLo(float64(q[j]), loE[code], hiE[code])
			j++
			if sLo > thr {
				return sLo
			}
		}
	}
	return sLo
}

func (t *Table) lowerSqThresh16(q []float32, words []uint64, thr float64) (lbSq float64) {
	var sLo float64
	j := 0
	for _, w := range words {
		for k := 0; k < 4 && j < t.dim; k++ {
			code := int(w & 0xFFFF)
			w >>= 16
			loE, hiE := t.edgesFor(j)
			sLo += contribLo(float64(q[j]), loE[code], hiE[code])
			j++
			if sLo > thr {
				return sLo
			}
		}
	}
	return sLo
}

// UpperSqPacked computes only the squared upper bound of a packed point,
// bitwise-identical to BoundsSqPacked's ubSq.
func (t *Table) UpperSqPacked(q []float32, words []uint64, c encoding.Codec) (ubSq float64) {
	switch c.Tau() {
	case 8:
		return t.upperSq8(q, words)
	case 16:
		return t.upperSq16(q, words)
	}
	var sUp float64
	for j := 0; j < t.dim; j++ {
		code := c.At(words, j)
		loE, hiE := t.edgesFor(j)
		sUp += contribUp(float64(q[j]), loE[code], hiE[code])
	}
	return sUp
}

func (t *Table) upperSq8(q []float32, words []uint64) (ubSq float64) {
	var sUp float64
	j := 0
	for _, w := range words {
		for k := 0; k < 8 && j < t.dim; k++ {
			code := int(w & 0xFF)
			w >>= 8
			loE, hiE := t.edgesFor(j)
			sUp += contribUp(float64(q[j]), loE[code], hiE[code])
			j++
		}
	}
	return sUp
}

func (t *Table) upperSq16(q []float32, words []uint64) (ubSq float64) {
	var sUp float64
	j := 0
	for _, w := range words {
		for k := 0; k < 4 && j < t.dim; k++ {
			code := int(w & 0xFFFF)
			w >>= 16
			loE, hiE := t.edgesFor(j)
			sUp += contribUp(float64(q[j]), loE[code], hiE[code])
			j++
		}
	}
	return sUp
}

// ErrNorm returns ‖ε(c)‖, the Euclidean norm of the error vector of
// Definition 10 (per-dimension real bucket widths) for an encoded point.
// Theorem 2's refinement-ratio estimate consumes it.
func (t *Table) ErrNorm(codes []int) float64 {
	var s float64
	for j, code := range codes {
		loE, hiE := t.edgesFor(j)
		w := hiE[code] - loE[code]
		s += w * w
	}
	return math.Sqrt(s)
}

// Rect computes (dist⁻, dist⁺) between q and an explicit rectangle
// [lo, hi] — the bound computation for mHC-R buckets and R-tree MBRs.
func Rect(q, lo, hi []float32) (lb, ub float64) {
	sLo, sUp := RectSq(q, lo, hi)
	return math.Sqrt(sLo), math.Sqrt(sUp)
}

// RectSq is Rect in squared space.
func RectSq(q, lo, hi []float32) (lbSq, ubSq float64) {
	var sLo, sUp float64
	for j := range q {
		l, u := contrib(float64(q[j]), float64(lo[j]), float64(hi[j]))
		sLo += l
		sUp += u
	}
	return sLo, sUp
}

// RectMin computes only dist⁻ to a rectangle (the MINDIST used by R-tree
// and other tree traversals).
func RectMin(q, lo, hi []float32) float64 {
	var s float64
	for j := range q {
		qj := float64(q[j])
		if dl := float64(lo[j]) - qj; dl > 0 {
			s += dl * dl
		} else if du := qj - float64(hi[j]); du > 0 {
			s += du * du
		}
	}
	return math.Sqrt(s)
}
