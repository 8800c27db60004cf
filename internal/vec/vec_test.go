package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := Dist(a, b); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
	if got := SqDist(a, b); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
	if got := Dist(a, a); got != 0 {
		t.Fatalf("Dist(a,a) = %v, want 0", got)
	}
}

func TestDistPaperExample(t *testing.T) {
	// The running example of Section 3.2: q=(9,11), p2 interval
	// ([8..15],[16..23]) gives dist+ = sqrt(6^2+12^2) = 13.42.
	q := []float32{9, 11}
	far := []float32{15, 23}
	if got, want := Dist(q, far), math.Sqrt(36+144); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Dist = %v, want %v", got, want)
	}
}

// TestSqDist4MatchesSqDist: each of SqDist4's four sums is SqDist's, bit for
// bit, at dims around and far past the unrolled width, over coordinates of
// mixed scale and sign.
func TestSqDist4MatchesSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	point := func(dim int, scale float64) []float32 {
		p := make([]float32, dim)
		for j := range p {
			p[j] = float32(rng.NormFloat64() * scale)
		}
		return p
	}
	for _, dim := range []int{0, 1, 3, 7, 150, 960} {
		for trial := 0; trial < 50; trial++ {
			q := point(dim, 1)
			ps := [4][]float32{point(dim, 1e-3), point(dim, 1), point(dim, 1e3), q}
			got := [4]float64{}
			got[0], got[1], got[2], got[3] = SqDist4(q, ps[0], ps[1], ps[2], ps[3])
			for i, p := range ps {
				if want := SqDist(q, p); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("dim %d trial %d: sum %d is %v, SqDist %v", dim, trial, i, got[i], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	SqDist4([]float32{1, 2}, []float32{1, 2}, []float32{1, 2}, []float32{1}, []float32{1, 2})
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dist([]float32{1}, []float32{1, 2})
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float32) bool {
		a := []float32{ax, ay}
		b := []float32{bx, by}
		c := []float32{cx, cy}
		dab, dba := Dist(a, b), Dist(b, a)
		if dab != dba {
			return false
		}
		// Triangle inequality with a little float slack.
		return Dist(a, c) <= dab+Dist(b, c)+1e-9*(1+dab)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float32{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty MinMax = %v,%v; want 0,1", lo, hi)
	}
}

func TestDomainBinEdges(t *testing.T) {
	d := NewDomain(0, 32, 32) // unit-width bins 0..31, like Figure 5
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {0.5, 0}, {2, 2}, {20, 20}, {31.9, 31}, {32, 31}, {-5, 0}, {99, 31}}
	for _, c := range cases {
		if got := d.Bin(c.v); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if d.BinLo(4) != 4 || d.BinHi(4) != 5 {
		t.Fatalf("bin 4 edges = [%v,%v], want [4,5]", d.BinLo(4), d.BinHi(4))
	}
	if d.Width() != 1 {
		t.Fatalf("Width = %v, want 1", d.Width())
	}
}

func TestDomainBinContainsValue(t *testing.T) {
	d := NewDomain(-2, 5, 97)
	f := func(raw float64) bool {
		// Map raw into the domain interval.
		v := -2 + math.Mod(math.Abs(raw), 7)
		b := d.Bin(v)
		return d.BinLo(b) <= v+1e-12 && v <= d.BinHi(b)+1e-12
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDomainPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ndom":     func() { NewDomain(0, 1, 0) },
		"interval": func() { NewDomain(3, 3, 8) },
		"zeroval":  func() { var d Domain; d.Bin(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBinPoint(t *testing.T) {
	d := NewDomain(0, 1, 4)
	p := []float32{0.1, 0.4, 0.9}
	got := d.BinPoint(p, nil)
	want := []int{0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BinPoint = %v, want %v", got, want)
		}
	}
	// Reuse destination.
	dst := make([]int, 3)
	if &d.BinPoint(p, dst)[0] != &dst[0] {
		t.Fatal("BinPoint did not reuse dst")
	}
}

func TestNorm(t *testing.T) {
	if got := Norm([]float32{3, 4}); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(3)
	if !math.IsInf(tk.Root(), 1) {
		t.Fatal("empty TopK root should be +Inf")
	}
	for i, d := range []float64{5, 1, 4, 2, 8, 3} {
		tk.Push(d, i)
	}
	ids, dists := tk.Results()
	wantD := []float64{1, 2, 3}
	wantI := []int{1, 3, 5}
	for i := range wantD {
		if dists[i] != wantD[i] || ids[i] != wantI[i] {
			t.Fatalf("Results = %v %v, want %v %v", ids, dists, wantI, wantD)
		}
	}
	if tk.Root() != 3 {
		t.Fatalf("Root = %v, want 3", tk.Root())
	}
}

func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(10)
		n := rng.Intn(100)
		tk := NewTopK(k)
		all := make([]float64, n)
		for i := range all {
			all[i] = rng.Float64()
			tk.Push(all[i], i)
		}
		// Reference: sort and take first k.
		ref := append([]float64(nil), all...)
		for i := 1; i < len(ref); i++ {
			for j := i; j > 0 && ref[j-1] > ref[j]; j-- {
				ref[j-1], ref[j] = ref[j], ref[j-1]
			}
		}
		_, dists := tk.Results()
		m := k
		if n < k {
			m = n
		}
		if len(dists) != m {
			t.Fatalf("len = %d, want %d", len(dists), m)
		}
		for i := 0; i < m; i++ {
			if dists[i] != ref[i] {
				t.Fatalf("trial %d: dists[%d]=%v, want %v", trial, i, dists[i], ref[i])
			}
		}
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewTopK(0)
}
