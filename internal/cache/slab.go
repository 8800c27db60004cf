// Slab-packed cache storage. The map-backed Cache[V] stores every payload as
// an individually heap-allocated value behind a map[int32]*entry lookup —
// fine for LRU (which mutates on every access) and for the EXACT baseline,
// but a cache-line disaster for Phase 2 of Algorithm 1, where millions of
// candidates per second resolve an id and scan a few dozen packed code words.
// The slab types below trade mutability for layout: all payload words live in
// ONE contiguous arena at a fixed (Slab) or prefix-indexed (VarSlab) stride,
// and the id→slot map is a dense int32 array indexed by id, so a lookup is
// one bounds-checked load and the payload bytes of consecutive slots are
// consecutive in memory. Content is fixed at build time, exactly like an HFF
// cache after FillHFF — which is the only policy the slabs serve.
package cache

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// admitKeys replays FillHFF's admission semantics over a priority-ordered key
// list: keys are admitted in order, duplicates are skipped (first occurrence
// wins), keys outside [0, universe) are skipped (a dense index cannot address
// them — the map cache tolerates them, but no engine produces any), and
// admission stops at capacity. It returns the dense key→slot index (len
// universe, -1 for absent) and the admitted keys in admission order.
func admitKeys(universe, capacity int, keys []int) (slots []int32, admitted []int32) {
	slots = make([]int32, universe)
	for i := range slots {
		slots[i] = -1
	}
	if capacity < 0 {
		capacity = 0
	}
	for _, k := range keys {
		if len(admitted) >= capacity {
			break
		}
		if k < 0 || k >= universe {
			continue
		}
		if slots[k] >= 0 {
			continue
		}
		slots[k] = int32(len(admitted))
		admitted = append(admitted, int32(k))
	}
	return slots, admitted
}

// Slab is a fixed-stride, scan-friendly HFF store: one contiguous []uint64
// arena holding every cached item's packed code words back to back, plus a
// dense id→slot index. It is immutable after Build, so concurrent lookups
// and arena scans are safe without any locking (statistics are atomic).
type Slab struct {
	stride   int // words per item
	capacity int // admission ceiling, for reporting parity with Cache
	arena    []uint64
	slots    []int32 // id → slot, -1 when absent; len = universe
	ids      []int32 // slot → id

	hits, misses atomic.Int64
}

// BuildSlab packs the first capacity unique in-range ids (priority order, as
// produced by RankByFrequency/HFFContent) into a slab of stride words per
// item. fill encodes one item into its stride-sized arena window.
func BuildSlab(universe, stride, capacity int, ids []int, fill func(id int, dst []uint64)) *Slab {
	if universe < 0 {
		panic(fmt.Sprintf("cache: negative slab universe %d", universe))
	}
	if stride < 1 {
		panic(fmt.Sprintf("cache: slab stride %d < 1", stride))
	}
	slots, admitted := admitKeys(universe, capacity, ids)
	s := &Slab{
		stride:   stride,
		capacity: capacity,
		arena:    make([]uint64, len(admitted)*stride),
		slots:    slots,
		ids:      admitted,
	}
	for slot, id := range admitted {
		fill(int(id), s.arena[slot*stride:(slot+1)*stride])
	}
	return s
}

// Stride returns the words per item.
func (s *Slab) Stride() int { return s.stride }

// Len returns the number of cached items.
func (s *Slab) Len() int { return len(s.ids) }

// Capacity returns the admission ceiling the slab was built with.
func (s *Slab) Capacity() int { return s.capacity }

// SlotOf resolves an id to its arena slot, or -1 on a miss. It does not
// touch statistics: Phase 2 resolves ids in blocks and charges hit/miss
// counts in bulk via AddStats.
func (s *Slab) SlotOf(id int) int32 {
	if id < 0 || id >= len(s.slots) {
		return -1
	}
	return s.slots[id]
}

// Contains reports membership without touching statistics.
func (s *Slab) Contains(id int) bool { return s.SlotOf(id) >= 0 }

// Words returns the packed code words of a slot.
func (s *Slab) Words(slot int32) []uint64 {
	off := int(slot) * s.stride
	return s.arena[off : off+s.stride]
}

// Arena exposes the backing word array for fused kernels: slot i occupies
// arena[i*Stride() : (i+1)*Stride()]. The arena is immutable.
func (s *Slab) Arena() []uint64 { return s.arena }

// Keys returns the cached ids in ascending order (diagnostic parity with
// Cache.Keys).
func (s *Slab) Keys() []int {
	keys := make([]int, len(s.ids))
	for i, id := range s.ids {
		keys[i] = int(id)
	}
	sort.Ints(keys)
	return keys
}

// AddStats charges a bulk of hits and misses (Phase 2 resolves candidates in
// blocks and settles the counters once per scan).
func (s *Slab) AddStats(hits, misses int64) {
	if hits != 0 {
		s.hits.Add(hits)
	}
	if misses != 0 {
		s.misses.Add(misses)
	}
}

// Stats returns a snapshot of hit/miss counters.
func (s *Slab) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load()}
}

// ResetStats zeroes the counters.
func (s *Slab) ResetStats() {
	s.hits.Store(0)
	s.misses.Store(0)
}

// VarSlab is the variable-stride sibling of Slab for leaf-granular caches
// (Section 3.6.1): item k occupies arena[offs[slot]:offs[slot+1]], so leaves
// of different populations pack back to back with no per-leaf allocation.
// Like Slab it is immutable after Build.
type VarSlab struct {
	capacity int
	arena    []uint64
	offs     []int64 // len = Len()+1 prefix offsets into arena
	slots    []int32 // key → slot, -1 when absent
	ids      []int32 // slot → key

	hits, misses atomic.Int64
}

// BuildVarSlab packs the first capacity unique in-range keys (priority
// order) into one arena. size reports the word count of one item; fill
// encodes it into its window.
func BuildVarSlab(universe, capacity int, keys []int, size func(key int) int, fill func(key int, dst []uint64)) *VarSlab {
	if universe < 0 {
		panic(fmt.Sprintf("cache: negative slab universe %d", universe))
	}
	slots, admitted := admitKeys(universe, capacity, keys)
	v := &VarSlab{capacity: capacity, slots: slots, ids: admitted}
	v.offs = make([]int64, len(admitted)+1)
	total := int64(0)
	for i, key := range admitted {
		n := size(int(key))
		if n < 0 {
			panic(fmt.Sprintf("cache: negative item size %d for key %d", n, key))
		}
		total += int64(n)
		v.offs[i+1] = total
	}
	v.arena = make([]uint64, total)
	for i, key := range admitted {
		fill(int(key), v.arena[v.offs[i]:v.offs[i+1]])
	}
	return v
}

// Len returns the number of cached items.
func (v *VarSlab) Len() int { return len(v.ids) }

// Capacity returns the admission ceiling the slab was built with.
func (v *VarSlab) Capacity() int { return v.capacity }

// Contains reports membership without touching statistics.
func (v *VarSlab) Contains(key int) bool {
	return key >= 0 && key < len(v.slots) && v.slots[key] >= 0
}

// Lookup resolves a key to its packed words, updating hit/miss statistics —
// the Get of the leaf-cache serve path.
func (v *VarSlab) Lookup(key int) ([]uint64, bool) {
	w, ok := v.Peek(key)
	if ok {
		v.hits.Add(1)
	} else {
		v.misses.Add(1)
	}
	return w, ok
}

// Peek is Lookup without statistics (diagnostics and test oracles).
func (v *VarSlab) Peek(key int) ([]uint64, bool) {
	if key < 0 || key >= len(v.slots) {
		return nil, false
	}
	slot := v.slots[key]
	if slot < 0 {
		return nil, false
	}
	return v.arena[v.offs[slot]:v.offs[slot+1]], true
}

// Stats returns a snapshot of hit/miss counters.
func (v *VarSlab) Stats() Stats {
	return Stats{Hits: v.hits.Load(), Misses: v.misses.Load()}
}

// ResetStats zeroes the counters.
func (v *VarSlab) ResetStats() {
	v.hits.Store(0)
	v.misses.Store(0)
}
