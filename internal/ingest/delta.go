// The delta index: the live overlay as one immutable value — the exact
// vectors of points inserted since the last compaction and the cumulative
// tombstone set — behind one atomic pointer.
//
// Writers, already serialized by the Live write lock, never touch a
// published value: Add, Delete and Prune each build the next core.Merge and
// republish. Points are append-only in identifier order, so the next value
// shares the previous one's stored prefix (an append writes past every
// published length); the tombstone map is copied on delete. A reader takes
// the whole overlay with one atomic load and may keep it indefinitely.
// Tombstones are cumulative for the life of the directory: compaction folds
// deleted points into the base file anyway (identifiers must stay dense and
// equal to point-file slots), so the mask that hides them never retires.

package ingest

import (
	"sync/atomic"

	"exploitbit/internal/core"
)

// Delta is the in-memory delta index. One writer at a time (the Live write
// lock); any number of concurrent readers.
type Delta struct {
	cur atomic.Pointer[core.Merge] // never nil; replaced, never written through
}

// NewDelta returns an empty delta index seeded with the given tombstone set
// (from recovery; may be nil). The set is owned by the delta from here on.
func NewDelta(tombs map[int64]struct{}) *Delta {
	d := &Delta{}
	d.cur.Store(&core.Merge{Tombs: tombs})
	return d
}

// Overlay returns the current overlay, nil when it is empty (the exact base
// fast path). The value is immutable: a later write publishes a new one.
func (d *Delta) Overlay() *core.Merge {
	mg := d.cur.Load()
	if len(mg.Extra) == 0 && len(mg.Tombs) == 0 {
		return nil
	}
	return mg
}

// Add appends a point. Identifiers must arrive in increasing order (the Live
// write lock guarantees it).
func (d *Delta) Add(id int32, vec []float32) {
	mg := *d.cur.Load()
	mg.Extra = append(mg.Extra, core.MergePoint{ID: id, Vec: vec})
	d.cur.Store(&mg)
}

// Delete tombstones id. Returns false when it already was.
func (d *Delta) Delete(id int64) bool {
	mg := *d.cur.Load()
	if _, dead := mg.Tombs[id]; dead {
		return false
	}
	next := make(map[int64]struct{}, len(mg.Tombs)+1)
	for k := range mg.Tombs {
		next[k] = struct{}{}
	}
	next[id] = struct{}{}
	mg.Tombs = next
	d.cur.Store(&mg)
	return true
}

// Prune drops every point with identifier below horizon — the points a
// freshly installed compacted engine now owns. Points at or past the horizon
// (inserted while the compaction ran) stay.
func (d *Delta) Prune(horizon int32) {
	mg := *d.cur.Load()
	i := 0
	for i < len(mg.Extra) && mg.Extra[i].ID < horizon {
		i++
	}
	if i == 0 {
		return
	}
	// Copy the survivors out so the folded prefix's memory can be reclaimed.
	mg.Extra = append([]core.MergePoint(nil), mg.Extra[i:]...)
	d.cur.Store(&mg)
}
