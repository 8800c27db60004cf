package core

// MergePoint is one delta-index point folded into a merged search: a point
// inserted after the engine was built, carried with its exact vector. ID is
// the dataset-global identifier the point will keep after compaction, so
// merged results are id-identical to an engine rebuilt over the folded
// dataset.
type MergePoint struct {
	ID  int32
	Vec []float32
}

// Merge is the live-ingest overlay of a merged search, as one immutable
// value: the delta points to fold into the reduction and the tombstone set
// over all identifiers, base and delta alike. The engine applies it inside
// Algorithm 1 — tombstoned base candidates are masked before Phase 2, delta
// points are scored exactly (lb = ub = d², zero I/O) and compete in the same
// k-th-bound selection, pruning and refinement as the base candidates.
//
// Extras whose ID is below the engine's point horizon are skipped: after a
// compaction the freshly built engine already contains those points, and the
// skip makes the overlay safe to use across an RCU engine swap without any
// coordination beyond reading the new engine's length.
//
// A Merge handed to a search is never written again — not the struct, not
// Extra or the vectors it references, not Tombs. Whoever maintains the
// overlay publishes a new value instead (ingest.Delta), so any number of
// searches, and every member of a batch, can share one.
type Merge struct {
	Extra []MergePoint
	Tombs map[int64]struct{}
}

// dead reports whether id is tombstoned.
func (mg *Merge) dead(id int) bool {
	_, ok := mg.Tombs[int64(id)]
	return ok
}

// NumPoints returns the number of base points the engine was built over —
// the horizon below which merged-search extras are treated as already
// compacted.
func (e *Engine) NumPoints() int { return e.ds.Len() }

// Dim returns the dataset dimensionality.
func (e *Engine) Dim() int { return e.ds.Dim }
