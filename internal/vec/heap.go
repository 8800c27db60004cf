package vec

import "math"

// TopK maintains the k smallest (distance, id) pairs seen so far. It is a
// bounded max-heap keyed on distance: the root is the current k-th smallest
// distance, so a candidate whose lower bound exceeds Root() can never enter
// the result set. Used by every index's kNN search and by the multi-step
// refinement loop.
type TopK struct {
	k     int
	dists []float64
	ids   []int
}

// NewTopK returns a TopK that keeps the k smallest entries. k must be >= 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("vec: TopK requires k >= 1")
	}
	return &TopK{k: k, dists: make([]float64, 0, k), ids: make([]int, 0, k)}
}

// Reset empties the heap and re-arms it for the k smallest entries, reusing
// the existing storage — the pooled-scratch path of core.Engine relies on
// this to keep steady-state queries allocation-free.
func (t *TopK) Reset(k int) {
	if k < 1 {
		panic("vec: TopK requires k >= 1")
	}
	t.k = k
	if cap(t.dists) < k {
		t.dists = make([]float64, 0, k)
		t.ids = make([]int, 0, k)
	} else {
		t.dists = t.dists[:0]
		t.ids = t.ids[:0]
	}
}

// Len reports how many entries are currently held (<= k).
func (t *TopK) Len() int { return len(t.dists) }

// Full reports whether k entries are held.
func (t *TopK) Full() bool { return len(t.dists) == t.k }

// Root returns the current k-th smallest distance, or +Inf when fewer than k
// entries are held. Using +Inf means "nothing can be pruned yet".
func (t *TopK) Root() float64 {
	if !t.Full() {
		return math.Inf(1)
	}
	return t.dists[0]
}

// CountLE reports how many held distances are ≤ x. The count never falls
// and a Push raises it by at most one — a full heap only ever trades its
// largest entry for a smaller one — which is what lets the refinement window
// bound the count at a later time by the count now plus the reads in flight.
func (t *TopK) CountLE(x float64) int {
	n := 0
	for _, d := range t.dists {
		if d <= x {
			n++
		}
	}
	return n
}

// Push offers (dist, id). It is a no-op when the heap is full and dist is
// not smaller than the current root.
func (t *TopK) Push(dist float64, id int) {
	if t.Full() {
		if dist >= t.dists[0] {
			return
		}
		t.dists[0], t.ids[0] = dist, id
		t.siftDown(0)
		return
	}
	t.dists = append(t.dists, dist)
	t.ids = append(t.ids, id)
	t.siftUp(len(t.dists) - 1)
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.dists[p] >= t.dists[i] {
			return
		}
		t.swap(p, i)
		i = p
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.dists)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && t.dists[l] > t.dists[m] {
			m = l
		}
		if r < n && t.dists[r] > t.dists[m] {
			m = r
		}
		if m == i {
			return
		}
		t.swap(m, i)
		i = m
	}
}

func (t *TopK) swap(i, j int) {
	t.dists[i], t.dists[j] = t.dists[j], t.dists[i]
	t.ids[i], t.ids[j] = t.ids[j], t.ids[i]
}

// Results returns the held entries sorted by ascending distance.
func (t *TopK) Results() (ids []int, dists []float64) {
	ids = append([]int(nil), t.ids...)
	dists = append([]float64(nil), t.dists...)
	sortByDist(ids, dists)
	return ids, dists
}

// Drain sorts the held entries in place by ascending distance and returns
// the internal slices without copying. The heap invariant is destroyed; call
// Reset before reusing the TopK. The returned slices are only valid until
// the next Push or Reset.
func (t *TopK) Drain() (ids []int, dists []float64) {
	sortByDist(t.ids, t.dists)
	return t.ids, t.dists
}

// sortByDist insertion-sorts parallel slices by distance: k is small
// (typically <= 100).
func sortByDist(ids []int, dists []float64) {
	for i := 1; i < len(dists); i++ {
		d, id := dists[i], ids[i]
		j := i - 1
		for j >= 0 && dists[j] > d {
			dists[j+1], ids[j+1] = dists[j], ids[j]
			j--
		}
		dists[j+1], ids[j+1] = d, id
	}
}
