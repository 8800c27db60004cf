// Package cache implements the in-memory candidate cache of Section 2.2:
// a byte-budgeted store mapping point (or leaf-node) identifiers to cached
// payloads — bit-packed approximate points for the HC-* methods, raw vectors
// for the EXACT baseline, whole leaf nodes for the tree-index adaptation of
// Section 3.6.1.
//
// Two replacement policies are provided, matching the paper: HFF
// (highest-frequency-first), a static policy that fixes the cache content
// offline from the query workload, and LRU, a dynamic policy updated at
// query time. Figure 8 shows HFF dominating LRU on skewed logs, so HFF is
// the default everywhere else.
//
// Concurrency: an HFF cache is immutable after its FillHFF build, so lookups
// from many goroutines are safe (statistics are atomic). An LRU cache
// serves Gets under a read lock — recency updates are journaled to a small
// buffer instead of mutating the list on the read path — and takes the write
// lock only for Puts and journal drains. Every Put drains the journal before
// deciding an eviction, so for a single-threaded caller the observable
// semantics are exactly classic LRU; under concurrent readers a recency
// update may be applied late (bounded by the journal size), which can only
// reorder accesses that were racing anyway.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Policy selects the replacement behaviour.
type Policy int

const (
	// HFF is the static highest-frequency-first policy (Section 4): content
	// chosen offline by descending workload frequency, never replaced.
	HFF Policy = iota
	// LRU is the dynamic least-recently-used policy.
	LRU
)

func (p Policy) String() string {
	switch p {
	case HFF:
		return "HFF"
	case LRU:
		return "LRU"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats counts cache traffic.
type Stats struct {
	Hits, Misses int64
}

// HitRatio returns hits/(hits+misses), the ρ_hit of Eqn 1, or 0 when idle.
func (s Stats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// CapacityForBudget converts a byte budget and per-item bit cost into an
// item capacity — how Theorem 1 relates N_item to N*_item via τ/Lvalue.
// The arithmetic is checked: budgetBytes*8 overflows int64 for budgets of
// 2^60 bytes and beyond (the naive expression turned such budgets into a
// negative — i.e. zero — capacity), and the final narrowing saturates at
// math.MaxInt instead of truncating on 32-bit platforms.
func CapacityForBudget(budgetBytes int64, itemBits int) int {
	if itemBits <= 0 {
		panic("cache: item bits must be positive")
	}
	if budgetBytes <= 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(budgetBytes), 8)
	if hi >= uint64(itemBits) {
		// The quotient would not fit in 64 bits (bits.Div64 panics on
		// hi >= divisor); any such capacity saturates anyway.
		return math.MaxInt
	}
	quo, _ := bits.Div64(hi, lo, uint64(itemBits))
	if quo > uint64(math.MaxInt) {
		return math.MaxInt
	}
	return int(quo)
}

type entry[V any] struct {
	id         int32
	dead       bool // set under mu when evicted; lets the journal drain skip stale touches without a map lookup
	val        V
	prev, next *entry[V]
}

// pendCap bounds the LRU recency journal: once this many Gets are buffered,
// the reader that overflows the ring drains synchronously. Small enough to
// keep recency nearly fresh, large enough to amortize a write-lock
// acquisition over hundreds of read-locked Gets.
const pendCap = 256

// Cache is a fixed-capacity id→payload store.
type Cache[V any] struct {
	policy   Policy
	capacity int
	mu       sync.RWMutex // guards m and the list under LRU; unused under HFF
	m        map[int32]*entry[V]
	// Doubly linked LRU list with sentinel; unused under HFF.
	sentinel entry[V]

	// Recency journal (LRU only): a Get claims the next ring slot with one
	// atomic add and stores the touched entry with one atomic store — no
	// lock on the read path. The list is reordered in batch under mu, by Put
	// before it makes any eviction decision or by the Get that overflows the
	// ring. Slot order is claim order, so a single-threaded caller's drains
	// replay its accesses exactly; racing readers may have a touch applied
	// one drain late (claimed slot not yet stored, or stored into a slot the
	// drain already swept) — those touches were unordered to begin with.
	pendHead atomic.Int64
	pend     [pendCap]atomic.Pointer[entry[V]]

	hits, misses atomic.Int64
}

// New creates a cache holding at most capacity items under the given policy.
// A zero capacity is legal and behaves as an always-miss cache (the NO-CACHE
// baseline).
func New[V any](capacity int, policy Policy) *Cache[V] {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
	// The capacity is only a ceiling (a saturated CapacityForBudget yields
	// math.MaxInt); cap the map pre-size hint so construction stays cheap.
	hint := min(capacity, 1<<20)
	c := &Cache[V]{policy: policy, capacity: capacity, m: make(map[int32]*entry[V], hint)}
	c.sentinel.prev = &c.sentinel
	c.sentinel.next = &c.sentinel
	return c
}

// Capacity returns the maximum number of items.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Len returns the current number of items.
func (c *Cache[V]) Len() int {
	if c.policy == LRU {
		c.mu.RLock()
		defer c.mu.RUnlock()
	}
	return len(c.m)
}

// Policy returns the replacement policy.
func (c *Cache[V]) Policy() Policy { return c.policy }

// Get looks up id, updating hit/miss statistics and (under LRU) recency.
// Safe for concurrent use (HFF content must be fixed via FillHFF first).
// LRU hits journal their recency update instead of reordering the list, so
// concurrent warm-cache readers share a read lock instead of serializing.
func (c *Cache[V]) Get(id int) (V, bool) {
	if c.policy != LRU {
		e, ok := c.m[int32(id)]
		if !ok {
			c.misses.Add(1)
			var zero V
			return zero, false
		}
		c.hits.Add(1)
		return e.val, true
	}
	c.mu.RLock()
	e, ok := c.m[int32(id)]
	if !ok {
		c.mu.RUnlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	v := e.val
	c.mu.RUnlock()
	c.hits.Add(1)
	c.recordUse(e)
	return v, true
}

// recordUse journals an LRU touch into the ring, draining when it overflows.
func (c *Cache[V]) recordUse(e *entry[V]) {
	i := c.pendHead.Add(1) - 1
	if i >= pendCap {
		c.mu.Lock()
		c.drainPendingLocked()
		c.mu.Unlock()
		i = c.pendHead.Add(1) - 1
		if i >= pendCap {
			// Racing readers refilled the fresh ring before our claim; drop
			// the touch rather than spin — it was concurrent with a full
			// ring's worth of accesses, so its position was arbitrary anyway.
			return
		}
	}
	c.pend[i].Store(e)
}

// drainPendingLocked applies the journaled recency updates in claim order.
// Caller holds mu; drains are serialized by it. Each slot is swapped to nil
// as it is applied, so a racing reader that stores into a swept slot simply
// has its touch applied by the next drain. Entries evicted since being
// journaled carry the dead mark and are skipped (a re-admitted id is a fresh
// allocation, so a stale pointer can never resurrect it).
func (c *Cache[V]) drainPendingLocked() {
	n := c.pendHead.Load()
	if n == 0 {
		return
	}
	if n > pendCap {
		n = pendCap
	}
	for i := int64(0); i < n; i++ {
		e := c.pend[i].Swap(nil)
		if e == nil || e.dead {
			continue // in-flight claim, or evicted while journaled
		}
		c.unlink(e)
		c.pushFront(e)
	}
	c.pendHead.Store(0)
}

// Contains reports membership without touching statistics or recency.
func (c *Cache[V]) Contains(id int) bool {
	if c.policy == LRU {
		c.mu.RLock()
		defer c.mu.RUnlock()
	}
	_, ok := c.m[int32(id)]
	return ok
}

// Put inserts or updates id. Under HFF, inserts beyond capacity are silently
// ignored (content is fixed by the offline build); under LRU the
// least-recently-used item is evicted. HFF Puts are NOT safe concurrently
// with Gets — fill the cache before serving.
func (c *Cache[V]) Put(id int, v V) {
	if c.policy == LRU {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Apply journaled recency before any eviction decision so the victim
		// is the true least-recently-used entry of the access sequence.
		c.drainPendingLocked()
	}
	if c.capacity == 0 {
		return
	}
	if e, ok := c.m[int32(id)]; ok {
		e.val = v
		if c.policy == LRU {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	if len(c.m) >= c.capacity {
		if c.policy == HFF {
			return
		}
		lru := c.sentinel.prev
		lru.dead = true
		c.unlink(lru)
		delete(c.m, lru.id)
	}
	e := &entry[V]{id: int32(id), val: v}
	c.m[int32(id)] = e
	c.pushFront(e)
}

func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.next = c.sentinel.next
	e.prev = &c.sentinel
	e.next.prev = e
	c.sentinel.next = e
}

// Keys returns the cached item ids in ascending order (for diagnostics).
func (c *Cache[V]) Keys() []int {
	if c.policy == LRU {
		c.mu.RLock()
		defer c.mu.RUnlock()
	}
	keys := make([]int, 0, len(c.m))
	for id := range c.m {
		keys = append(keys, int(id))
	}
	sort.Ints(keys)
	return keys
}

// Stats returns a snapshot of hit/miss counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// ResetStats zeroes the counters.
func (c *Cache[V]) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
}

// FillHFF populates a (typically HFF) cache with ids in priority order —
// descending workload frequency, as computed by RankByFrequency — stopping
// at capacity. It returns the number of items admitted.
func (c *Cache[V]) FillHFF(ids []int, value func(id int) V) int {
	n := 0
	for _, id := range ids {
		if c.Len() >= c.capacity {
			break
		}
		if c.Contains(id) {
			continue
		}
		c.Put(id, value(id))
		n++
	}
	return n
}

// RankByFrequency sorts item ids by descending frequency, breaking ties by
// ascending id for determinism. freq maps id → workload frequency
// (freq(p) = |{q ∈ WL : p ∈ C(q)}|, Section 4).
func RankByFrequency(freq map[int]int) []int {
	ids := make([]int, 0, len(freq))
	for id := range freq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		fa, fb := freq[a], freq[b]
		if fa != fb {
			return fa > fb
		}
		return a < b
	})
	return ids
}
