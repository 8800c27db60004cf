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

// Merge is the live-ingest overlay of a merged search: a tombstone mask over
// base ids and the delta points to fold into the reduction. The engine
// applies it inside Algorithm 1 — tombstoned base candidates are masked
// before Phase 2, delta points are scored exactly (lb = ub = d², zero I/O)
// and compete in the same k-th-bound selection, pruning and refinement as
// the base candidates.
//
// Extras whose ID is below the engine's point horizon are skipped: after a
// compaction the freshly built engine already contains those points, and the
// skip makes the overlay safe to use across an RCU engine swap without any
// coordination beyond reading the new engine's length.
//
// Deleted must be safe for concurrent use and stable for the duration of one
// search; Extra and the vectors it references must not be mutated while a
// search using them is in flight.
type Merge struct {
	Deleted func(id int32) bool
	Extra   []MergePoint
}

// extraLive reports whether extra ex survives the overlay's own masking for
// an engine holding horizon base points.
func (mg *Merge) extraLive(ex *MergePoint, horizon int32) bool {
	if ex.ID < horizon {
		return false
	}
	return mg.Deleted == nil || !mg.Deleted(ex.ID)
}

// NumPoints returns the number of base points the engine was built over —
// the horizon below which merged-search extras are treated as already
// compacted.
func (e *Engine) NumPoints() int { return e.ds.Len() }

// Dim returns the dataset dimensionality.
func (e *Engine) Dim() int { return e.ds.Dim }
