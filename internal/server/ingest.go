// Live-ingest endpoints. Over a Searcher that is also an Ingestor the handler
// additionally serves:
//
//	POST /insert  {"vector": [...]}  → {"id": 123}
//	POST /delete  {"id": 123}        → {"deleted": 123}
//
// Writes pass the same admission gate as searches (a write is work too) and
// the same vector validation as /search — dimensionality and finiteness are
// checked before anything reaches the write-ahead log. When the Report carries
// an Ingest block, /stats and /metrics show it: WAL size, delta and tombstone
// counts, compaction and replay telemetry.

package server

import (
	"context"
	"errors"
	"net/http"
	"time"
)

// ErrUnknownID marks a delete of an identifier that no insert ever produced;
// the handler answers 404. Implementations wrap or translate their own
// sentinel to this one (errors.Is).
var ErrUnknownID = errors.New("server: unknown point id")

// ErrWALFailed marks a write refused because the write-ahead log has failed
// stop; the handler answers 503 wal_failed, and searches keep serving.
// Implementations wrap or translate their own sentinel to this one.
var ErrWALFailed = errors.New("server: write-ahead log failed")

// Ingestor is the optional write capability, detected on the Searcher by New
// like BatchSearcher: durable insert and delete against the live system.
// Insert returns the point's permanent identifier.
type Ingestor interface {
	Insert(ctx context.Context, vec []float32) (int, error)
	Delete(ctx context.Context, id int) error
}

// IngestCounters is the write path's own snapshot. Its fields mirror
// ingest.Stats one for one, in order, so the facade converts between the two
// with a Go struct conversion and a drifted field fails to compile.
type IngestCounters struct {
	WalBytes             int64 `json:"wal_bytes"`
	WalSegments          int   `json:"wal_segments"`
	DeltaPoints          int   `json:"delta_points"`
	Tombstones           int   `json:"tombstones"`
	Points               int   `json:"points"`
	Inserts              int64 `json:"inserts"`
	Deletes              int64 `json:"deletes"`
	Compactions          int64 `json:"compactions"`
	CompactionErrors     int64 `json:"compaction_errors"`
	CompactInFlight      bool  `json:"compact_in_flight"`
	ReplayedRecords      int   `json:"replayed_records"`
	ReplayTruncatedBytes int64 `json:"replay_truncated_bytes"`
}

// IngestStats is the live write path telemetry block for /stats and /metrics.
type IngestStats struct {
	IngestCounters

	// ShardWrites breaks writes down by owning shard (deletes go to the shard
	// that owns the base point; inserts to the delta point's future home),
	// one entry when unsharded.
	ShardWrites []ShardWriteStat `json:"shard_writes,omitempty"`
}

// ShardWriteStat is one shard's write-routing tally.
type ShardWriteStat struct {
	Shard   int   `json:"shard"`
	Inserts int64 `json:"inserts"`
	Deletes int64 `json:"deletes"`
}

type insertRequest struct {
	Vector []float32 `json:"vector"`
}

type insertResponse struct {
	ID int `json:"id"`
}

type deleteRequest struct {
	ID *int `json:"id"`
}

type deleteResponse struct {
	Deleted int `json:"deleted"`
}

// admitWrite is admission for the write endpoints: one slot, and a refusal
// counts as write_shed as well as shed.
func (h *Handler) admitWrite(w http.ResponseWriter) bool {
	if h.admit(1) > 0 {
		h.writeShed.Add(1)
		h.fail(w, http.StatusServiceUnavailable,
			"saturated: %d requests in flight; retry with backoff", cap(h.gate))
		return false
	}
	return true
}

func (h *Handler) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !h.admitWrite(w) {
		return
	}
	defer h.release(1)
	var req insertRequest
	if !h.decode(w, r, 1<<22, &req) {
		return
	}
	if p := h.vectorProblem(req.Vector); p != "" {
		h.fail(w, http.StatusBadRequest, "vector%s", p)
		return
	}
	start := time.Now()
	id, err := h.ingestor.Insert(r.Context(), req.Vector)
	if err != nil {
		h.writeFailed(w, "insert", err)
		return
	}
	h.inserts.Add(1)
	h.latInsert.Observe(time.Since(start))
	h.writeJSON(w, http.StatusOK, insertResponse{ID: id})
}

func (h *Handler) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !h.admitWrite(w) {
		return
	}
	defer h.release(1)
	var req deleteRequest
	if !h.decode(w, r, 1<<16, &req) {
		return
	}
	if req.ID == nil {
		h.fail(w, http.StatusBadRequest, "missing id")
		return
	}
	start := time.Now()
	if err := h.ingestor.Delete(r.Context(), *req.ID); err != nil {
		if errors.Is(err, ErrUnknownID) {
			h.fail(w, http.StatusNotFound, "unknown id %d", *req.ID)
			return
		}
		h.writeFailed(w, "delete", err)
		return
	}
	h.deletes.Add(1)
	h.latDelete.Observe(time.Since(start))
	h.writeJSON(w, http.StatusOK, deleteResponse{Deleted: *req.ID})
}

// ingestMetrics is the /metrics write-path block: the reported snapshot plus
// the handler's own request counters.
type ingestMetrics struct {
	IngestStats
	InsertRequests int64             `json:"insert_requests"`
	DeleteRequests int64             `json:"delete_requests"`
	WriteErrors    int64             `json:"write_errors"`
	WriteShed      int64             `json:"write_shed"`
	LatInsert      HistogramSnapshot `json:"latency_insert"`
	LatDelete      HistogramSnapshot `json:"latency_delete"`
}

// ingestMetrics assembles the /metrics ingest object around the report's
// block, nil when the deployment has neither a write path nor one to report.
func (h *Handler) ingestMetrics(rep *IngestStats) *ingestMetrics {
	if h.ingestor == nil && rep == nil {
		return nil
	}
	m := &ingestMetrics{
		InsertRequests: h.inserts.Load(),
		DeleteRequests: h.deletes.Load(),
		WriteErrors:    h.writeErrs.Load(),
		WriteShed:      h.writeShed.Load(),
		LatInsert:      h.latInsert.Snapshot(),
		LatDelete:      h.latDelete.Snapshot(),
	}
	if rep != nil {
		m.IngestStats = *rep
	}
	return m
}

// writeFailed answers a write the Ingestor refused: 503 wal_failed once the
// log has failed stop (no write can succeed before a restart recovers it),
// 500 for any other failure.
func (h *Handler) writeFailed(w http.ResponseWriter, op string, err error) {
	h.writeErrs.Add(1)
	if errors.Is(err, ErrWALFailed) {
		h.fail(w, http.StatusServiceUnavailable, "wal_failed: %s refused: %v", op, err)
		return
	}
	h.fail(w, http.StatusInternalServerError, "%s failed: %v", op, err)
}
