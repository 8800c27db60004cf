package multistep

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"exploitbit/internal/vec"
)

// serialSearchSq is the fetch loop SearchSq had before reads overlapped —
// wait for one read, push one distance, test the optimal stop, ask for the
// next — kept here, and only here, as the oracle the windowed loop is held
// to. It also returns the ids it fetched, in order.
func serialSearchSq(q []float32, cands []Candidate, k int, fetch Fetch) ([]Result, int, []int, error) {
	order := slices.Clone(cands)
	slices.SortFunc(order, func(a, b Candidate) int {
		switch {
		case a.LB < b.LB:
			return -1
		case a.LB > b.LB:
			return 1
		default:
			return 0
		}
	})
	top := vec.NewTopK(k)
	var asked []int
	fetched := 0
	for _, c := range order {
		if top.Full() && c.LB >= top.Root() {
			break
		}
		asked = append(asked, c.ID)
		p, err := fetch(c.ID)
		if err != nil {
			if errors.Is(err, ErrSkipCandidate) {
				continue
			}
			return nil, fetched, asked, fmt.Errorf("multistep: fetching candidate %d: %w", c.ID, err)
		}
		fetched++
		top.Push(vec.SqDist(q, p), c.ID)
	}
	ids, sq := top.Results()
	out := make([]Result, len(ids))
	for i := range ids {
		out[i] = Result{ID: ids[i], Dist: math.Sqrt(sq[i])}
	}
	return out, fetched, asked, nil
}

// completion orders the scripted reader finishes in-flight reads in.
const (
	oldestFirst = iota
	newestFirst
	randomOrder
	completionOrders
)

// scriptedReads is a Reads without goroutines whose in-flight reads complete
// in an adversarial order: a read's vector lands in its slot's buffer only
// when the script completes it, which happens — oldest, newest or a random
// one first — while the loop waits for the head of its window. It fails the
// test when the loop breaks the Reads contract (a slot issued while occupied,
// an Await out of issue order, more than depth reads in flight) and records
// every id issued.
type scriptedReads struct {
	t     *testing.T
	depth int
	fetch Fetch
	order int
	rng   *rand.Rand

	issued   []int
	inflight []int // slots issued and not yet awaited, oldest first
	slotID   []int
	slotDone []bool
	slotBuf  [][]float32
	slotErr  []error
}

func newScriptedReads(t *testing.T, depth, dim int, fetch Fetch, order int, seed int64) *scriptedReads {
	r := &scriptedReads{t: t, depth: depth, fetch: fetch, order: order, rng: rand.New(rand.NewSource(seed))}
	slots := min(depth, MaxDepth)
	r.slotID = make([]int, slots)
	r.slotDone = make([]bool, slots)
	r.slotErr = make([]error, slots)
	r.slotBuf = make([][]float32, slots)
	for i := range r.slotBuf {
		r.slotBuf[i] = make([]float32, dim)
		r.slotID[i] = -1
	}
	return r
}

func (r *scriptedReads) Depth() int { return r.depth }

func (r *scriptedReads) Issue(slot, id int) {
	if slot < 0 || slot >= len(r.slotID) {
		r.t.Fatalf("Issue on slot %d of %d", slot, len(r.slotID))
	}
	if r.slotID[slot] >= 0 {
		r.t.Fatalf("slot %d issued for candidate %d while candidate %d still occupies it", slot, id, r.slotID[slot])
	}
	r.slotID[slot], r.slotDone[slot] = id, false
	r.inflight = append(r.inflight, slot)
	r.issued = append(r.issued, id)
}

func (r *scriptedReads) complete(slot int) {
	p, err := r.fetch(r.slotID[slot])
	r.slotErr[slot] = err
	if err == nil {
		copy(r.slotBuf[slot], p)
	}
	r.slotDone[slot] = true
}

func (r *scriptedReads) Await(slot, id int) ([]float32, error) {
	if len(r.inflight) == 0 || r.inflight[0] != slot || r.slotID[slot] != id {
		r.t.Fatalf("Await(slot %d, candidate %d) out of issue order (in flight %v)", slot, id, r.inflight)
	}
	for !r.slotDone[slot] {
		var pending []int
		for _, s := range r.inflight {
			if !r.slotDone[s] {
				pending = append(pending, s)
			}
		}
		switch r.order {
		case oldestFirst:
			r.complete(pending[0])
		case newestFirst:
			r.complete(pending[len(pending)-1])
		default:
			r.complete(pending[r.rng.Intn(len(pending))])
		}
	}
	r.inflight = r.inflight[1:]
	r.slotID[slot] = -1
	return r.slotBuf[slot], r.slotErr[slot]
}

// windowWorld is one seeded refinement problem: points, a query, candidates
// with valid bounds, and which candidates are skipped or fail outright.
type windowWorld struct {
	q     []float32
	pts   [][]float32
	cands []Candidate
	skip  map[int]bool
	fatal int // candidate whose read fails with errBoom; -1: none
}

var errBoom = errors.New("boom")

func (w *windowWorld) fetch(failing bool) Fetch {
	return func(id int) ([]float32, error) {
		if w.skip[id] {
			return nil, fmt.Errorf("shard of %d failed: %w", id, ErrSkipCandidate)
		}
		if failing && id == w.fatal {
			return nil, errBoom
		}
		return w.pts[id], nil
	}
}

// newWindowWorld draws a world with everything the issue rule has to survive:
// lower bounds that tie (quantised), a share of vacuous LB = 0 candidates
// (cache misses), exact-in-RAM candidates (LB = UB = the distance), points
// duplicated so exact distances tie — some of them on the query itself, so
// distance 0 ties too — skipped candidates and, when fatalAt ≥ 0, one fatal
// read at that position of the candidate list.
func newWindowWorld(seed int64, n, dim int, zeroShare, exactShare, skipShare float64, fatalAt int) *windowWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &windowWorld{q: make([]float32, dim), pts: make([][]float32, n), skip: map[int]bool{}, fatal: -1}
	for j := range w.q {
		w.q[j] = rng.Float32()
	}
	for i := range w.pts {
		switch r := rng.Float64(); {
		case i > 0 && r < 0.15:
			w.pts[i] = w.pts[rng.Intn(i)] // duplicate: exact distances tie
		case r < 0.25:
			w.pts[i] = w.q // the query itself: exact distance 0
		default:
			p := make([]float32, dim)
			for j := range p {
				p[j] = rng.Float32()
			}
			w.pts[i] = p
		}
	}
	for _, id := range rng.Perm(n)[:1+rng.Intn(n)] {
		d2 := vec.SqDist(w.q, w.pts[id])
		c := Candidate{ID: id, LB: 0, UB: math.Inf(1)}
		switch r := rng.Float64(); {
		case r < zeroShare:
		case r < zeroShare+exactShare:
			c.LB, c.UB = d2, d2
		default:
			c.LB = math.Floor(d2*rng.Float64()*8) / 8 // quantised: ties
			c.UB = d2 + rng.Float64()
		}
		if rng.Float64() < skipShare {
			w.skip[id] = true
		}
		w.cands = append(w.cands, c)
	}
	if fatalAt >= 0 {
		w.fatal = w.cands[fatalAt%len(w.cands)].ID
	}
	return w
}

// checkWindow holds one windowed run to the serial oracle: the same ids
// issued in the same order — never one more — the same fetch count, the same
// results; and under a fatal read, the same error after the same fetches,
// with at most depth−1 further reads issued, each of them one the serial
// schedule would have made had the failing read succeeded.
func checkWindow(t *testing.T, w *windowWorld, k, depth, order int, seed int64) {
	t.Helper()
	want, wantFetched, wantAsked, wantErr := serialSearchSq(w.q, w.cands, k, w.fetch(true))
	r := newScriptedReads(t, depth, len(w.q), w.fetch(true), order, seed)
	var sc Scratch
	got, gotFetched, err := sc.SearchSq(w.q, w.cands, k, r, nil)
	tag := fmt.Sprintf("k=%d depth=%d order=%d", k, depth, order)

	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, serial %v", tag, err, wantErr)
	}
	if gotFetched != wantFetched {
		t.Fatalf("%s: fetched %d, serial %d", tag, gotFetched, wantFetched)
	}
	if err == nil {
		if !slices.Equal(r.issued, wantAsked) {
			t.Fatalf("%s: issued %v, serial fetched %v", tag, r.issued, wantAsked)
		}
		if len(r.inflight) != 0 {
			t.Fatalf("%s: returned with reads %v in flight", tag, r.inflight)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: results %v, serial %v", tag, got, want)
		}
		return
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("%s: fatal error lost its cause: %v", tag, err)
	}
	if len(r.issued) < len(wantAsked) || !slices.Equal(r.issued[:len(wantAsked)], wantAsked) {
		t.Fatalf("%s: issued %v does not start with the serial fetches %v", tag, r.issued, wantAsked)
	}
	if extra := len(r.issued) - len(wantAsked); extra > depth-1 {
		t.Fatalf("%s: %d reads issued past the failing one, window depth %d", tag, extra, depth)
	}
	_, _, healthy, _ := serialSearchSq(w.q, w.cands, k, w.fetch(false))
	if len(r.issued) > len(healthy) || !slices.Equal(r.issued, healthy[:len(r.issued)]) {
		t.Fatalf("%s: issued %v is not a prefix of the schedule without the failure %v", tag, r.issued, healthy)
	}
}

// checkWindowWorld runs w at every depth of interest — 1 (where the scripted
// reader also proves each read is awaited before the next is issued, i.e. the
// rule issues exactly when the old stop rule did), 2, k and the cap — under
// every completion order.
func checkWindowWorld(t *testing.T, w *windowWorld, k int, seed int64) {
	t.Helper()
	for _, depth := range []int{1, 2, k, MaxDepth, MaxDepth + 7} {
		for order := 0; order < completionOrders; order++ {
			checkWindow(t, w, k, depth, order, seed)
		}
	}
}

// TestWindowMatchesSerial is the proof obligation of the issue rule as a
// property: nothing is read that Seidl–Kriegel's serial schedule would not
// read, in any world, at any depth, in any completion order.
func TestWindowMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(90)
		fatalAt := -1
		if trial%3 == 0 {
			fatalAt = rng.Intn(n)
		}
		w := newWindowWorld(rng.Int63(), n, 1+rng.Intn(6),
			rng.Float64()*0.9, rng.Float64()*0.3, rng.Float64()*0.4, fatalAt)
		// k from 1 (all but one result seeded as true hits) past n (k > n).
		for _, k := range []int{1, 2 + rng.Intn(12), n + 3} {
			checkWindowWorld(t, w, k, rng.Int63())
		}
	}
}

// TestWindowOverlaps pins the other half: the rule is not vacuous. With k
// vacuous lower bounds at the front of the schedule, k reads are in flight
// before the first is awaited.
func TestWindowOverlaps(t *testing.T) {
	w := newWindowWorld(5, 60, 4, 1, 0, 0, -1)
	const k = 6
	r := newScriptedReads(t, MaxDepth, len(w.q), w.fetch(false), oldestFirst, 1)
	peak := 0
	probe := Fetch(func(id int) ([]float32, error) {
		peak = max(peak, len(r.inflight))
		return w.pts[id], nil
	})
	r.fetch = probe
	var sc Scratch
	if _, _, err := sc.SearchSq(w.q, w.cands, k, r, nil); err != nil {
		t.Fatal(err)
	}
	if peak != min(k, len(w.cands)) {
		t.Fatalf("peak window %d, want k = %d reads in flight over all-vacuous bounds", peak, k)
	}
}

// FuzzWindowMatchesSerial drives the same property from fuzzed world
// parameters; the checked-in corpus under testdata/fuzz runs with go test.
func FuzzWindowMatchesSerial(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(10), uint8(128), uint8(32), uint8(32), int16(-1))
	f.Add(int64(2), uint8(75), uint8(2), uint8(10), uint8(220), uint8(0), uint8(0), int16(30))
	f.Fuzz(func(t *testing.T, seed int64, n, dim, k, zero, exact, skip uint8, fatalAt int16) {
		w := newWindowWorld(seed, 1+int(n)%120, 1+int(dim)%8,
			float64(zero)/255, float64(exact)/512, float64(skip)/512, int(fatalAt))
		checkWindowWorld(t, w, 1+int(k)%40, seed)
	})
}
