package histogram

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteMin exhaustively minimizes the summed bucket cost over every
// partition of [0..ndom-1] into at most b contiguous buckets — the
// specification optimalPartition's DP (and its Lemma-3 cutoff) must match.
func bruteMin(ndom, b int, cost intervalCost) float64 {
	var rec func(start, m int) float64
	rec = func(start, m int) float64 {
		if start == ndom {
			return 0
		}
		if m == 0 {
			return math.Inf(1)
		}
		best := math.Inf(1)
		for end := start; end < ndom; end++ {
			if v := cost(start, end) + rec(end+1, m-1); v < best {
				best = v
			}
		}
		return best
	}
	return rec(0, b)
}

// partitionCost sums the cost of the partition described by bucket uppers,
// checking it is well formed (strictly ascending, covering [0, ndom-1]).
func partitionCost(t *testing.T, ndom int, uppers []int, cost intervalCost) float64 {
	t.Helper()
	if len(uppers) == 0 || uppers[len(uppers)-1] != ndom-1 {
		t.Fatalf("partition %v does not cover [0,%d]", uppers, ndom-1)
	}
	var sum float64
	lo := 0
	for _, u := range uppers {
		if u < lo {
			t.Fatalf("partition %v is not strictly ascending", uppers)
		}
		sum += cost(lo, u)
		lo = u + 1
	}
	return sum
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestOptimalPartitionMatchesBruteForce sweeps small domains against the
// exhaustive optimum for both cost families the package ships (the paper's
// Υ metric of Eqn 4 and V-optimal SSE), with the Lemma-3 cutoff on and off.
// Sweeping b past ndom exercises the singleton branch (n <= m) and the
// b-clamping; the returned partition must itself achieve the claimed value.
func TestOptimalPartitionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	costFamilies := []struct {
		name string
		mk   func(f []float64) intervalCost
	}{
		{"upsilon", func(f []float64) intervalCost {
			s := prefixSums(f)
			return func(lo, hi int) float64 {
				w := float64(hi - lo)
				return (s[hi+1] - s[lo]) * w * w
			}
		}},
		{"sse", func(f []float64) intervalCost {
			s := prefixSums(f)
			sq := make([]float64, len(f))
			for i, v := range f {
				sq[i] = v * v
			}
			s2 := prefixSums(sq)
			return func(lo, hi int) float64 {
				n := float64(hi - lo + 1)
				sum := s[hi+1] - s[lo]
				sse := s2[hi+1] - s2[lo] - sum*sum/n
				if sse < 0 {
					return 0
				}
				return sse
			}
		}},
	}
	for _, fam := range costFamilies {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				for ndom := 1; ndom <= 8; ndom++ {
					f := make([]float64, ndom)
					for i := range f {
						f[i] = float64(rng.Intn(50)) // zeros included: flat regions stress the cutoff
					}
					cost := fam.mk(f)
					for b := 1; b <= ndom+2; b++ {
						want := bruteMin(ndom, b, cost)
						for _, cutoff := range []bool{false, true} {
							res := optimalPartition(ndom, b, cost, cutoff)
							if !closeEnough(res.value, want) {
								t.Fatalf("ndom=%d b=%d cutoff=%v f=%v: dp value %g, brute force %g",
									ndom, b, cutoff, f, res.value, want)
							}
							if got := partitionCost(t, ndom, res.uppers, cost); !closeEnough(got, res.value) {
								t.Fatalf("ndom=%d b=%d cutoff=%v f=%v: partition %v costs %g, dp claims %g",
									ndom, b, cutoff, f, res.uppers, got, res.value)
							}
							if len(res.uppers) > b {
								t.Fatalf("ndom=%d b=%d: partition %v uses more than b buckets", ndom, b, res.uppers)
							}
						}
					}
				}
			}
		})
	}
}

// TestKNNOptimalCutoffExact pins the ablation claim at a realistic size: the
// cutoff changes construction work only, never the metric value (HC-O built
// with and without it selects equally optimal partitions).
func TestKNNOptimalCutoffExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := make([]float64, 200)
	for i := range f {
		f[i] = rng.Float64() * float64(rng.Intn(30))
	}
	s := prefixSums(f)
	cost := func(lo, hi int) float64 {
		w := float64(hi - lo)
		return (s[hi+1] - s[lo]) * w * w
	}
	for _, b := range []int{1, 2, 7, 32, 200} {
		with := optimalPartition(len(f), b, cost, true)
		without := optimalPartition(len(f), b, cost, false)
		if !closeEnough(with.value, without.value) {
			t.Fatalf("b=%d: cutoff changed the optimum: %g vs %g", b, with.value, without.value)
		}
	}
}

// randomFPrime draws a workload frequency array of one of three kinds: 0,
// small integers with many zeros (ties everywhere); 1, reals with zero runs;
// 2, a real background under a few hot spikes (a profiled F′'s shape).
func randomFPrime(rng *rand.Rand, ndom, kind int) []float64 {
	f := make([]float64, ndom)
	for i := range f {
		switch kind {
		case 0:
			f[i] = float64(rng.Intn(4))
		case 1:
			if rng.Intn(3) > 0 {
				f[i] = rng.Float64() * 10
			}
		default:
			f[i] = rng.Float64() * 0.01
			if rng.Intn(20) == 0 {
				f[i] += float64(rng.Intn(200))
			}
		}
	}
	return f
}

// sameResult reports whether two DP results are bit-identical: the same
// uppers and the same value, compared as bits.
func sameResult(a, b dpResult) bool {
	return slices.Equal(a.uppers, b.uppers) && math.Float64bits(a.value) == math.Float64bits(b.value)
}

// referencePartition is Algorithm 2's table exactly as the paper fills it:
// every row up to b, each n <= m cell re-summing its singletons from 0. It
// is the oracle optimalPartition's short-circuit and prefix-summed diagonal
// are held to, bit for bit.
func referencePartition(ndom, b int, cost intervalCost, cutoff bool) dpResult {
	if b > ndom {
		b = ndom
	}
	if b < 1 {
		b = 1
	}
	opt := make([][]float64, b+1)
	pos := make([][]int32, b+1)
	for m := 1; m <= b; m++ {
		opt[m] = make([]float64, ndom+1)
		pos[m] = make([]int32, ndom+1)
	}
	for n := 1; n <= ndom; n++ {
		opt[1][n] = cost(0, n-1)
	}
	for m := 2; m <= b; m++ {
		for n := 1; n <= ndom; n++ {
			if n <= m {
				var v float64
				for t := 0; t < n; t++ {
					v += cost(t, t)
				}
				opt[m][n] = v
				pos[m][n] = int32(n - 1)
				continue
			}
			best := math.Inf(1)
			bestT := int32(0)
			for t := n - 1; t >= m-1; t-- {
				c := cost(t, n-1)
				if cutoff && c >= best {
					break
				}
				if v := opt[m-1][t] + c; v < best {
					best = v
					bestT = int32(t)
				}
			}
			opt[m][n] = best
			pos[m][n] = bestT
		}
	}
	uppers := make([]int, 0, b)
	n := ndom
	for m := b; m >= 1 && n > 0; m-- {
		uppers = append(uppers, n-1)
		if m == 1 {
			n = 0
		} else {
			n = int(pos[m][n])
		}
	}
	for i, j := 0, len(uppers)-1; i < j; i, j = i+1, j-1 {
		uppers[i], uppers[j] = uppers[j], uppers[i]
	}
	return dpResult{uppers: uppers, value: opt[b][ndom]}
}

// assertMatchesReference holds optimalPartition to the paper's table at
// each budget in budgets, with the cutoff on and off in turn when both is
// set. The table at b > ndom is the one at ndom.
func assertMatchesReference(t *testing.T, f []float64, cost intervalCost, budgets []int, both bool) {
	t.Helper()
	cutoffs := []bool{true}
	if both {
		cutoffs = append(cutoffs, false)
	}
	for _, cutoff := range cutoffs {
		refs := map[int]dpResult{}
		for _, b := range budgets {
			want, ok := refs[min(b, len(f))]
			if !ok {
				want = referencePartition(len(f), b, cost, cutoff)
				refs[min(b, len(f))] = want
			}
			if got := optimalPartition(len(f), b, cost, cutoff); !sameResult(got, want) {
				t.Fatalf("ndom=%d b=%d cutoff=%v f=%v: %v (%v), reference %v (%v)",
					len(f), b, cutoff, f, got.uppers, got.value, want.uppers, want.value)
			}
		}
	}
}

// TestPartitionMatchesReference: the b >= ndom short-circuit and the
// prefix-summed diagonal return the paper's Algorithm 2 partition and value
// bit for bit, for Υ (HC-O) and SSE (HC-V) — over 3 000 random F′ at ndom in
// [1, 80] and, unless -short, two at the serving domain, 1 024, at the
// budgets τ = 7..10 give and one beyond.
func TestPartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 3000; trial++ {
		ndom := 1 + rng.Intn(80)
		f := randomFPrime(rng, ndom, rng.Intn(3))
		budgets := []int{1 + rng.Intn(ndom), ndom, ndom + 1 + rng.Intn(3)}
		assertMatchesReference(t, f, upsilonCost(f), budgets, true)
		if trial%10 == 0 {
			assertMatchesReference(t, f, sseCost(f), budgets, true)
		}
	}
	if testing.Short() {
		return
	}
	for kind := 1; kind <= 2; kind++ {
		f := randomFPrime(rng, 1024, kind)
		assertMatchesReference(t, f, upsilonCost(f), []int{128, 256, 512, 1024, 1025}, false)
	}
}
