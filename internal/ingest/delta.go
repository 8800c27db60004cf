// The delta index: the in-memory overlay holding the exact vectors of points
// inserted since the last compaction, and the cumulative tombstone set over
// base identifiers.
//
// Points are append-only in identifier order — the stored prefix is immutable
// — so a snapshot for a merged search is an O(1) reslice under a read lock.
// Tombstones are copy-on-write: Deleted reads an atomic map pointer with no
// lock at all, which keeps the hot search path free of writer contention.
// Tombstones are cumulative for the life of the directory: compaction folds
// deleted points into the base file anyway (identifiers must stay dense and
// equal to point-file slots), so the mask that hides them never retires.

package ingest

import (
	"sync"
	"sync/atomic"

	"exploitbit/internal/core"
)

// Delta is the in-memory delta index. One writer at a time (the Live write
// lock); any number of concurrent readers.
type Delta struct {
	mu  sync.RWMutex
	pts []core.MergePoint

	tombs  atomic.Pointer[map[int64]struct{}]
	nTombs atomic.Int64
}

// NewDelta returns an empty delta index seeded with the given tombstone set
// (from recovery; may be nil).
func NewDelta(tombs map[int64]struct{}) *Delta {
	if tombs == nil {
		tombs = map[int64]struct{}{}
	}
	d := &Delta{}
	d.tombs.Store(&tombs)
	d.nTombs.Store(int64(len(tombs)))
	return d
}

// Add appends a point. Identifiers must arrive in increasing order (the Live
// write lock guarantees it).
func (d *Delta) Add(id int32, vec []float32) {
	d.mu.Lock()
	d.pts = append(d.pts, core.MergePoint{ID: id, Vec: vec})
	d.mu.Unlock()
}

// Delete tombstones id. Returns false when it already was.
func (d *Delta) Delete(id int64) bool {
	old := *d.tombs.Load()
	if _, dead := old[id]; dead {
		return false
	}
	next := make(map[int64]struct{}, len(old)+1)
	for k := range old {
		next[k] = struct{}{}
	}
	next[id] = struct{}{}
	d.tombs.Store(&next)
	d.nTombs.Store(int64(len(next)))
	return true
}

// Deleted reports whether id is tombstoned. Lock-free; safe from any
// goroutine, including mid-search through core.Merge.
func (d *Delta) Deleted(id int32) bool {
	_, dead := (*d.tombs.Load())[int64(id)]
	return dead
}

// Snapshot returns the current points as an immutable prefix view. The
// returned slice must not be appended to or mutated.
func (d *Delta) Snapshot() []core.MergePoint {
	d.mu.RLock()
	pts := d.pts[:len(d.pts):len(d.pts)]
	d.mu.RUnlock()
	return pts
}

// TombSet returns the current tombstone map. The map is immutable (writers
// replace, never mutate), so the caller may read it indefinitely.
func (d *Delta) TombSet() map[int64]struct{} {
	return *d.tombs.Load()
}

// Prune drops every point with identifier below horizon — the points a
// freshly installed compacted engine now owns. Points at or past the horizon
// (inserted while the compaction ran) stay.
func (d *Delta) Prune(horizon int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := 0
	for i < len(d.pts) && d.pts[i].ID < horizon {
		i++
	}
	if i == 0 {
		return
	}
	// Copy the survivors out so the folded prefix's memory can be reclaimed.
	d.pts = append([]core.MergePoint(nil), d.pts[i:]...)
}

// Len reports the number of delta points.
func (d *Delta) Len() int {
	d.mu.RLock()
	n := len(d.pts)
	d.mu.RUnlock()
	return n
}

// Tombstones reports the cumulative tombstone count.
func (d *Delta) Tombstones() int { return int(d.nTombs.Load()) }
