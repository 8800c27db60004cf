// Package vec provides the basic vector primitives used throughout the
// library: Euclidean distances on float32 feature vectors, min/max
// normalization, and the integer-domain discretization that the paper's
// histograms operate on (Section 2.1 and footnote 7 of Section 3.5).
//
// Points are plain []float32 slices. All distance arithmetic is carried out
// in float64 to avoid accumulating single-precision rounding error across
// hundreds of dimensions.
package vec

import (
	"fmt"
	"math"
)

// SqDist returns the squared Euclidean distance between a and b.
// It panics if the dimensionalities differ; mixing dimensionalities is a
// programming error, not a runtime condition.
func SqDist(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// SqDist4 returns the squared Euclidean distances from q to a, b, c and d:
// four SqDist sums run side by side, each added in SqDist's dimension order,
// so each equals its SqDist bit for bit. It panics if any dimensionality
// differs from q's.
func SqDist4(q, a, b, c, d []float32) (sa, sb, sc, sd float64) {
	n := len(q)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d/%d/%d/%d", n, len(a), len(b), len(c), len(d)))
	}
	a, b, c, d = a[:n], b[:n], c[:n], d[:n]
	for i, v := range q {
		x := float64(v)
		da := x - float64(a[i])
		db := x - float64(b[i])
		dc := x - float64(c[i])
		dd := x - float64(d[i])
		sa += da * da
		sb += db * db
		sc += dc * dc
		sd += dd * dd
	}
	return sa, sb, sc, sd
}

// Dist returns the Euclidean distance between a and b (Definition 2).
func Dist(a, b []float32) float64 {
	return math.Sqrt(SqDist(a, b))
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(a[i])
	}
	return math.Sqrt(s)
}

// MinMax returns the per-call minimum and maximum over all coordinates of
// all points in data, interpreted as a flat array. It returns (0, 1) for
// empty input so that a zero-value domain is still usable.
func MinMax(data []float32) (lo, hi float64) {
	if len(data) == 0 {
		return 0, 1
	}
	lo, hi = float64(data[0]), float64(data[0])
	for _, v := range data {
		f := float64(v)
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}

// Domain maps real-valued coordinates into the discrete value domain
// [0 .. Ndom-1] that histograms are built over. The paper assumes dimension
// values already live in an integer domain [0..Ndom] (Definition 6); real
// feature vectors are discretized by uniform binning, which is the
// "discretization on floating-point values" of footnote 7.
//
// The zero value is not usable; construct with NewDomain.
type Domain struct {
	Lo, Hi float64 // closed real interval covered by the domain
	Ndom   int     // number of distinct discrete values
	width  float64 // (Hi-Lo)/Ndom, cached
}

// NewDomain builds a Domain over [lo, hi] with ndom discrete values.
// It panics on ndom < 1 or hi <= lo, which indicate misconfiguration.
func NewDomain(lo, hi float64, ndom int) Domain {
	if ndom < 1 {
		panic(fmt.Sprintf("vec: Ndom must be >= 1, got %d", ndom))
	}
	if hi <= lo {
		panic(fmt.Sprintf("vec: invalid domain [%v, %v]", lo, hi))
	}
	return Domain{Lo: lo, Hi: hi, Ndom: ndom, width: (hi - lo) / float64(ndom)}
}

// Bin returns the discrete value for real coordinate v, clamped into
// [0, Ndom-1] so that out-of-domain values degrade gracefully instead of
// corrupting histogram lookups. NaN maps to bin 0: int(NaN) is
// implementation-defined in Go, so it is rejected before the conversion.
func (d Domain) Bin(v float64) int {
	if d.width <= 0 {
		panic("vec: use of zero-value Domain")
	}
	if v != v { // NaN never equals itself
		return 0
	}
	// Range-check before the int conversion: a far-out coordinate (live
	// inserts can carry anything) would overflow the conversion, which is
	// implementation-defined in Go and lands nowhere near a boundary bucket.
	if v <= d.Lo {
		return 0
	}
	if v >= d.Hi {
		return d.Ndom - 1
	}
	b := int((v - d.Lo) / d.width)
	if b < 0 {
		return 0
	}
	if b >= d.Ndom {
		return d.Ndom - 1
	}
	return b
}

// Clamp pins real coordinate v into the closed interval [Lo, Hi], with NaN
// mapping to Lo. Live inserts may carry coordinates outside the profiled
// histogram domain; clamping the stored vector guarantees Bin's boundary
// bucket actually contains the coordinate, which is what keeps the derived
// lower/upper distance bounds conservative.
func (d Domain) Clamp(v float64) float64 {
	if d.width <= 0 {
		panic("vec: use of zero-value Domain")
	}
	if !(v >= d.Lo) { // catches v < Lo and NaN
		return d.Lo
	}
	if v > d.Hi {
		return d.Hi
	}
	return v
}

// ClampPoint clamps every coordinate of p into the domain in place and
// returns whether any coordinate changed.
func (d Domain) ClampPoint(p []float32) bool {
	changed := false
	for i, v := range p {
		c := d.Clamp(float64(v))
		if float32(c) != v || v != v { // v != v: NaN never equals itself
			p[i] = float32(c)
			changed = true
		}
	}
	return changed
}

// BinLo returns the inclusive real lower edge of discrete value bin.
func (d Domain) BinLo(bin int) float64 {
	return d.Lo + float64(bin)*d.width
}

// BinHi returns the exclusive real upper edge of discrete value bin. Any
// coordinate v with Bin(v) == bin satisfies BinLo(bin) <= v <= BinHi(bin),
// which is what makes the derived distance bounds conservative.
func (d Domain) BinHi(bin int) float64 {
	return d.Lo + float64(bin+1)*d.width
}

// Width returns the real width of one discrete value bin.
func (d Domain) Width() float64 { return d.width }

// BinPoint discretizes every coordinate of p into dst (which must have the
// same length) and returns dst. A nil dst allocates.
func (d Domain) BinPoint(p []float32, dst []int) []int {
	if dst == nil {
		dst = make([]int, len(p))
	}
	if len(dst) != len(p) {
		panic("vec: BinPoint dst length mismatch")
	}
	for i, v := range p {
		dst[i] = d.Bin(float64(v))
	}
	return dst
}
