package histogram

import (
	"math"
)

// intervalCost is the contribution of one bucket [lo..hi] (0-based discrete
// values) to a histogram metric. Both supported costs are monotone
// non-increasing in lo for fixed hi (Lemma 3 for Υ; a standard property for
// SSE), which is what justifies the DP cutoff.
type intervalCost func(lo, hi int) float64

// dpResult carries the optimal partition and its metric value.
type dpResult struct {
	uppers []int
	value  float64
}

// optimalPartition is the dynamic program of Algorithm 2 (Build-kNN-Histogram)
// generalized over the bucket-cost function: it finds the partition of
// [0..ndom-1] into at most b buckets minimizing the sum of bucket costs,
// using Eqn 5:
//
//	OPT(n,m) = min_t { OPT(t,m-1) + cost([t+1, n]) }
//
// When cutoff is true the inner loop terminates once cost([t+1,n]) alone
// already exceeds the best OPT(n,m) found — valid because cost is monotone
// in the bucket width (Lemma 3) and OPT(t,m-1) >= 0. This is the paper's key
// construction-time optimization; the ablation bench toggles it.
//
// It pays only for what its output needs. At b >= ndom the answer is the
// all-singletons partition, returned before any table is allocated, and the
// n <= m cells (the first n values as singletons) are read off one prefix
// sum instead of each re-summing cost(t,t) from 0. Both give the full
// table's partition and value bit for bit: the same additions in the same
// order.
func optimalPartition(ndom, b int, cost intervalCost, cutoff bool) dpResult {
	if b >= ndom {
		return singletons(ndom, cost)
	}
	if b < 1 {
		b = 1
	}
	// diag[n] = Σ_{t<n} cost(t,t), added left to right.
	diag := make([]float64, ndom+1)
	for t := 0; t < ndom; t++ {
		diag[t+1] = diag[t] + cost(t, t)
	}
	// opt[m][n] = minimal metric covering the first n values (0..n-1) with
	// at most m buckets; pos[m][n] = best split t (prefix length of the
	// sub-problem), or 0 when the whole prefix is one bucket.
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
				// Enough buckets for singletons: metric contribution is
				// width 0 per bucket for Υ, and 0 deviation for SSE only if
				// singleton; cost(l,l) handles both.
				opt[m][n] = diag[n]
				pos[m][n] = int32(n - 1)
				continue
			}
			best := math.Inf(1)
			bestT := int32(0)
			for t := n - 1; t >= m-1; t-- {
				c := cost(t, n-1)
				if cutoff && c >= best {
					break // Lemma 3: widening only increases cost
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
	// Recover bucket uppers.
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
	// uppers collected back-to-front.
	for i, j := 0, len(uppers)-1; i < j; i, j = i+1, j-1 {
		uppers[i], uppers[j] = uppers[j], uppers[i]
	}
	return dpResult{uppers: uppers, value: opt[b][ndom]}
}

// singletons is the partition at b >= ndom, one bucket per value, its value
// Σ cost(t,t) added left to right as the table's diagonal adds it.
func singletons(ndom int, cost intervalCost) dpResult {
	uppers := make([]int, ndom)
	var v float64
	for t := range uppers {
		uppers[t] = t
		v += cost(t, t)
	}
	return dpResult{uppers: uppers, value: v}
}

// prefixSums returns S with S[i] = Σ_{x<i} f[x].
func prefixSums(f []float64) []float64 {
	s := make([]float64, len(f)+1)
	for i, v := range f {
		s[i+1] = s[i] + v
	}
	return s
}

// KNNOptimalOptions tunes Algorithm 2.
type KNNOptimalOptions struct {
	// DisableCutoff turns off the Lemma 3 early termination (ablation).
	DisableCutoff bool
	// NaiveUpsilon evaluates Υ([l,u]) by direct summation instead of via
	// prefix sums (ablation for construction-time comparisons).
	NaiveUpsilon bool
}

// KNNOptimal builds the paper's optimal kNN histogram HC-O (Algorithm 2):
// the partition into at most b buckets minimizing metric M3,
// Σ_i Υ([l_i,u_i]) with Υ([l,u]) = (Σ_{x∈[l,u]} F′[x]) · (u−l)²  (Eqn 4),
// where fprime is the workload frequency array F′ of Eqn 3.
func KNNOptimal(fprime []float64, b int) *Histogram {
	return KNNOptimalWith(fprime, b, KNNOptimalOptions{})
}

// KNNOptimalWith is KNNOptimal with explicit options.
func KNNOptimalWith(fprime []float64, b int, opt KNNOptimalOptions) *Histogram {
	ndom := len(fprime)
	cost := upsilonCost(fprime)
	if opt.NaiveUpsilon {
		cost = func(lo, hi int) float64 {
			var sum float64
			for v := lo; v <= hi; v++ {
				sum += fprime[v]
			}
			w := float64(hi - lo)
			return sum * w * w
		}
	}
	res := optimalPartition(ndom, b, cost, !opt.DisableCutoff)
	h, err := FromUppers(ndom, res.uppers)
	if err != nil {
		panic("histogram: internal kNN-optimal error: " + err.Error())
	}
	return h
}

// upsilonCost is Υ of Eqn 4 over F′, one prefix-sum difference per bucket.
func upsilonCost(fprime []float64) intervalCost {
	s := prefixSums(fprime)
	return func(lo, hi int) float64 {
		w := float64(hi - lo)
		return (s[hi+1] - s[lo]) * w * w
	}
}

// sseCost is a bucket's sum of squared deviations from its mean frequency.
func sseCost(freq []float64) intervalCost {
	s := prefixSums(freq)
	sq := make([]float64, len(freq))
	for i, v := range freq {
		sq[i] = v * v
	}
	s2 := prefixSums(sq)
	return func(lo, hi int) float64 {
		n := float64(hi - lo + 1)
		sum := s[hi+1] - s[lo]
		sumSq := s2[hi+1] - s2[lo]
		sse := sumSq - sum*sum/n
		if sse < 0 { // numerical guard
			return 0
		}
		return sse
	}
}

// VOptimal builds the classical V-optimal histogram (HC-V) minimizing the
// SSE metric of Jagadish et al. over the data frequency array freq.
func VOptimal(freq []float64, b int) *Histogram {
	res := optimalPartition(len(freq), b, sseCost(freq), true)
	h, err := FromUppers(len(freq), res.uppers)
	if err != nil {
		panic("histogram: internal V-optimal error: " + err.Error())
	}
	return h
}
