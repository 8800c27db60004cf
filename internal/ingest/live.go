// Live ties the write path together: validated, clamped inserts and
// idempotent deletes go WAL-first then into the delta index, which publishes
// the overlay every merged search takes (Overlay; searching itself is the
// engine's business, not this package's); and a background compactor folds
// the delta into the append-extended point file through one ordinary RCU
// rebuild — the same non-blocking queue drift rebuilds, adaptive-τ retunes
// and quarantine recoveries go through.

package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"exploitbit/internal/core"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/vec"
)

// ErrUnknownID marks a delete of an identifier no insert ever produced.
var ErrUnknownID = errors.New("ingest: unknown point id")

// Compactor launches one non-blocking RCU rebuild over a folded dataset,
// profiled at the maintainer's own k. *core.Maintainer implements it; a nil
// Compactor disables compaction (the delta and WAL then grow until restart —
// the sharded deployment's mode, see DESIGN.md §17).
type Compactor interface {
	CompactRebuild(prepare func() (*dataset.Dataset, core.CandidateFunc, error), onDone func(installed bool)) bool
}

// Config assembles a Live system.
type Config struct {
	// Dir is the WAL directory (segments + checkpoint).
	Dir string
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncMode
	// Compactor runs compaction rebuilds; nil disables compaction.
	Compactor Compactor
	// PF is the base point file compaction appends to. Required when
	// Compactor is set.
	PF *disk.PointFile
	// Fold is the current folded dataset (base file + recovered points) the
	// serving engine was built over. Required.
	Fold *dataset.Dataset
	// BaseN is the length of the immutable base dataset file — constant
	// across restarts, the id origin of every checkpoint. Required
	// (0 is valid only for an empty base).
	BaseN int
	// BuildCands rebuilds the Phase-1 candidate index over a folded dataset
	// during compaction. Required when Compactor is set.
	BuildCands func(ds *dataset.Dataset) core.CandidateFunc
	// CompactThreshold is the delta point count that triggers compaction
	// (default 4096; ignored without a Compactor).
	CompactThreshold int
}

// tombstoneRatio triggers compaction when the tombstones taken since the last
// compaction reach this fraction of the fold.
const tombstoneRatio = 0.25

func (cfg Config) withDefaults() Config {
	if cfg.Fsync == "" {
		cfg.Fsync = FsyncAlways
	}
	if cfg.CompactThreshold <= 0 {
		cfg.CompactThreshold = 4096
	}
	return cfg
}

// Stats snapshots the live write path for /stats, /metrics and benchmarks.
type Stats struct {
	WalBytes             int64 `json:"wal_bytes"`
	WalSegments          int   `json:"wal_segments"`
	DeltaPoints          int   `json:"delta_points"`
	Tombstones           int   `json:"tombstones"`
	Points               int   `json:"points"` // live points: folded + delta − tombstones
	Inserts              int64 `json:"inserts"`
	Deletes              int64 `json:"deletes"`
	Compactions          int64 `json:"compactions"`
	CompactionErrors     int64 `json:"compaction_errors"`
	CompactInFlight      bool  `json:"compact_in_flight"`
	ReplayedRecords      int   `json:"replayed_records"`
	ReplayTruncatedBytes int64 `json:"replay_truncated_bytes"`
}

// compactSnap carries one compaction's prepared state from prepare to onDone.
// At most one compaction is in flight (the maintainer's rebuild CAS), so a
// single slot suffices.
type compactSnap struct {
	newFold    *dataset.Dataset
	coveredSeq uint64
	tombsAtCut int64
}

// Live is the live-ingest write path of one serving system.
type Live struct {
	cfg   Config
	dom   vec.Domain
	dim   int // immutable; fold itself is swapped by compactions
	wal   *WAL
	delta *Delta

	// mu serializes writes so WAL record order equals identifier order.
	// nextID is written under it and read without (telemetry must not queue
	// behind an fsync).
	mu           sync.Mutex
	nextID       atomic.Int64
	pendingTombs int64 // deletes since the last successful compaction

	// fold is the current folded dataset; touched only by the compaction
	// chain (prepare → onDone), which the rebuild CAS serializes.
	fold  *dataset.Dataset
	foldN atomic.Int64
	snap  *compactSnap

	inserts     atomic.Int64
	deletes     atomic.Int64
	compactions atomic.Int64
	compactErrs atomic.Int64
	compacting  atomic.Bool

	replayRecords   int
	replayTruncated int64

	closed atomic.Bool
}

// Open wires a Live over an already recovered and constructed system: call
// Recover first, build the fold and the searcher over it, then Open with the
// RecoverResult (nil means a fresh directory was already confirmed empty).
func Open(cfg Config, rec *RecoverResult) (*Live, error) {
	cfg = cfg.withDefaults()
	if cfg.Fold == nil {
		return nil, fmt.Errorf("ingest: Config.Fold is required")
	}
	if cfg.Compactor != nil && (cfg.PF == nil || cfg.BuildCands == nil) {
		return nil, fmt.Errorf("ingest: Compactor requires PF and BuildCands")
	}
	if cfg.BaseN < 0 || cfg.BaseN > cfg.Fold.Len() {
		return nil, fmt.Errorf("ingest: BaseN %d out of range [0,%d]", cfg.BaseN, cfg.Fold.Len())
	}
	var tombs map[int64]struct{}
	startSeq := uint64(1)
	if rec != nil {
		if cfg.BaseN+len(rec.Points) != cfg.Fold.Len() {
			return nil, fmt.Errorf("ingest: fold has %d points, recovery says %d", cfg.Fold.Len(), cfg.BaseN+len(rec.Points))
		}
		tombs = rec.Tombs
		startSeq = rec.NextSeq
	}
	wal, err := OpenWAL(cfg.Dir, cfg.Fold.Dim, startSeq, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	l := &Live{
		cfg:   cfg,
		dom:   cfg.Fold.Domain,
		dim:   cfg.Fold.Dim,
		wal:   wal,
		delta: NewDelta(tombs),
		fold:  cfg.Fold,
	}
	l.nextID.Store(int64(cfg.Fold.Len()))
	l.foldN.Store(int64(cfg.Fold.Len()))
	if rec != nil {
		l.replayRecords = rec.Records
		l.replayTruncated = rec.TruncatedBytes
	}
	return l, nil
}

// Insert admits one point: the vector is copied, clamped into the dataset's
// value domain (out-of-domain coordinates land on boundary buckets, so HFF
// codes stay valid and bounds conservative), logged, and added to the delta
// index. Returns the point's permanent identifier, or ErrWALFailed once the
// log has failed.
func (l *Live) Insert(ctx context.Context, v []float32) (int, error) {
	if l.closed.Load() {
		return 0, fmt.Errorf("ingest: closed")
	}
	if len(v) != l.dim {
		return 0, fmt.Errorf("ingest: insert dim %d, dataset dim %d", len(v), l.dim)
	}
	p := make([]float32, len(v))
	copy(p, v)
	l.dom.ClampPoint(p)
	l.mu.Lock()
	id := l.nextID.Load()
	if id > math.MaxInt32 {
		l.mu.Unlock()
		return 0, fmt.Errorf("ingest: point id space exhausted (%d ids, max %d)", id, math.MaxInt32)
	}
	if err := l.wal.AppendInsert(uint64(id), p); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.delta.Add(int32(id), p)
	l.nextID.Store(id + 1)
	l.inserts.Add(1)
	l.maybeCompactLocked()
	l.mu.Unlock()
	return int(id), nil
}

// Delete tombstones a point. Idempotent: deleting an already deleted point
// succeeds without touching the WAL. Deleting an identifier no insert ever
// produced fails with ErrUnknownID; any delete that needs the log fails with
// ErrWALFailed once the log has failed.
func (l *Live) Delete(ctx context.Context, id int) error {
	if l.closed.Load() {
		return fmt.Errorf("ingest: closed")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < 0 || int64(id) >= l.nextID.Load() {
		return fmt.Errorf("%w: %d", ErrUnknownID, id)
	}
	if _, dead := l.delta.cur.Load().Tombs[int64(id)]; dead {
		return nil
	}
	if err := l.wal.AppendDelete(uint64(id)); err != nil {
		return err
	}
	l.delta.Delete(int64(id))
	l.deletes.Add(1)
	l.pendingTombs++
	l.maybeCompactLocked()
	return nil
}

// Overlay returns the live overlay every merged search runs under — single
// or batch, one value per request: the delta points and the tombstone set as
// of the last completed write, nil when both are empty (the exact base fast
// path). One atomic load, no lock; the value never changes once returned, so
// a write landing mid-search surfaces in the next search, not this one.
func (l *Live) Overlay() *core.Merge { return l.delta.Overlay() }

// maybeCompactLocked launches a compaction when the delta or the tombstone
// backlog crosses its threshold. Caller holds l.mu. Losing the rebuild CAS
// (a drift rebuild or retune is running) is fine: the next write retries.
func (l *Live) maybeCompactLocked() {
	if l.cfg.Compactor == nil || l.compacting.Load() {
		return
	}
	dp := len(l.delta.cur.Load().Extra)
	tombTrig := float64(l.pendingTombs) >= tombstoneRatio*float64(l.foldN.Load())
	if dp < l.cfg.CompactThreshold && !(l.pendingTombs > 0 && tombTrig) {
		return
	}
	if l.cfg.Compactor.CompactRebuild(l.prepare, l.onDone) {
		l.compacting.Store(true)
	}
}

// prepare runs on the maintainer's rebuild goroutine, off the search and
// write paths: cut a consistent snapshot (the published overlay + the sealed
// WAL horizon), extend the point file, assemble the folded dataset, persist
// the cumulative checkpoint, and rebuild the candidate index.
func (l *Live) prepare() (*dataset.Dataset, core.CandidateFunc, error) {
	l.mu.Lock()
	cut := l.delta.cur.Load()
	pts, tombs := cut.Extra, cut.Tombs
	tombsAtCut := l.pendingTombs
	covered, err := l.wal.Rotate()
	l.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}

	// Append at the fold's current end. A compaction that failed after the
	// append left orphan slots past the fold; retrying at the same position
	// overwrites them, keeping id == slot.
	at := l.fold.Len()
	vecs := make([][]float32, len(pts))
	for i := range pts {
		if int(pts[i].ID) != at+i {
			return nil, nil, fmt.Errorf("ingest: delta id %d at snapshot index %d, want %d", pts[i].ID, i, at+i)
		}
		vecs[i] = pts[i].Vec
	}
	if err := l.cfg.PF.Append(at, vecs); err != nil {
		return nil, nil, fmt.Errorf("ingest: compaction append: %w", err)
	}

	data := make([]float32, 0, (at+len(pts))*l.fold.Dim)
	data = append(data, l.fold.Data()...)
	for _, p := range pts {
		data = append(data, p.Vec...)
	}
	newFold := dataset.New(l.fold.Name, l.fold.Dim, data, l.dom)

	// Durability order: checkpoint first, segment retirement later (onDone).
	// A crash in between replays covered segments as no-ops (they are
	// skipped wholesale by their sequence numbers).
	if err := writeCheckpoint(l.cfg.Dir, newFold, l.cfg.BaseN, tombs, covered); err != nil {
		return nil, nil, err
	}
	cands := l.cfg.BuildCands(newFold)
	if cands == nil {
		return nil, nil, fmt.Errorf("ingest: candidate index rebuild over %d-point fold failed", newFold.Len())
	}
	l.snap = &compactSnap{newFold: newFold, coveredSeq: covered, tombsAtCut: tombsAtCut}
	return newFold, cands, nil
}

// onDone finishes a compaction after the maintainer installed (or failed to
// build) the new engine. On install the delta prefix the new engine now owns
// is pruned and the covered WAL segments are retired; merged searches racing
// the swap stay correct either way, because extras below the new engine's
// horizon are skipped inside the engine.
func (l *Live) onDone(installed bool) {
	snap := l.snap
	l.snap = nil
	defer l.compacting.Store(false)
	if !installed || snap == nil {
		l.compactErrs.Add(1)
		return
	}
	horizon := int32(snap.newFold.Len())
	l.mu.Lock()
	l.fold = snap.newFold
	l.foldN.Store(int64(snap.newFold.Len()))
	l.delta.Prune(horizon)
	l.pendingTombs -= snap.tombsAtCut
	l.mu.Unlock()
	if err := l.wal.RemoveThrough(snap.coveredSeq); err != nil {
		// The checkpoint covers these segments; leaving them behind costs
		// only disk space and a skip at the next recovery.
		l.compactErrs.Add(1)
		return
	}
	l.compactions.Add(1)
}

// Stats snapshots the write path. It takes no lock: every figure is an
// atomic or comes off the published overlay, so telemetry never waits for an
// in-flight write's fsync.
func (l *Live) Stats() Stats {
	bytes, segs := l.wal.Stats()
	mg := l.delta.cur.Load()
	return Stats{
		WalBytes:             bytes,
		WalSegments:          segs,
		DeltaPoints:          len(mg.Extra),
		Tombstones:           len(mg.Tombs),
		Points:               int(l.nextID.Load()) - len(mg.Tombs),
		Inserts:              l.inserts.Load(),
		Deletes:              l.deletes.Load(),
		Compactions:          l.compactions.Load(),
		CompactionErrors:     l.compactErrs.Load(),
		CompactInFlight:      l.compacting.Load(),
		ReplayedRecords:      l.replayRecords,
		ReplayTruncatedBytes: l.replayTruncated,
	}
}

// ForceCompact launches a compaction regardless of thresholds (test and
// operations hook). Returns false when compaction is disabled or a rebuild
// is already running.
func (l *Live) ForceCompact() bool {
	if l.cfg.Compactor == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.compacting.Load() {
		return false
	}
	if l.cfg.Compactor.CompactRebuild(l.prepare, l.onDone) {
		l.compacting.Store(true)
		return true
	}
	return false
}

// Close stops admitting writes and closes the WAL. The caller drains the
// maintainer (and any in-flight compaction with it) separately.
func (l *Live) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.Close()
}
