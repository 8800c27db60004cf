// Package server exposes a cached kNN engine over HTTP — the shape a
// multimedia-retrieval deployment of the paper's system takes: the engine
// (with its histogram cache) lives in one process, front-ends POST feature
// vectors and get back neighbor identifiers plus the cache telemetry that
// Section 5 reports.
//
// Endpoints:
//
//	POST /search  {"vector": [...], "k": 10} → {"ids": [...], "stats": {...}}
//	POST /search/batch {"vectors": [[...], ...], "k": 10} (over a BatchSearcher)
//	POST /insert, POST /delete (over an Ingestor; see ingest.go)
//	GET  /stats   aggregate statistics since startup
//	GET  /metrics per-stage latency histograms + admission counters
//	GET  /healthz liveness
//
// The handler owns the request lifecycle around the engine: the request
// context flows into the search (a disconnected client abandons Phase 2/3
// work instead of burning a worker), a bounded-concurrency admission gate
// sheds load with 503 once the configured number of searches is in flight,
// and /metrics exposes lock-free per-stage latency histograms so operators
// see where queries spend their time.
//
// New builds the handler whole from what the Searcher can do: the optional
// capabilities (BatchSearcher, Ingestor, Reporter) are discovered on it once,
// every route is registered there, and nothing is mutable afterwards.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"exploitbit/internal/disk"
)

// Searcher is the engine-shaped dependency (the facade adapts every engine
// type to it, capabilities included). The context
// is the request's: implementations abandon work when it is done and return
// its error (possibly wrapped).
type Searcher interface {
	Search(ctx context.Context, q []float32, k int) ([]int, Stats, error)
}

// BatchSearcher is the optional batch capability: engines that coalesce
// refinement I/O across a burst of queries implement it, and New detects it
// on the Searcher to enable POST /search/batch. Results and stats are
// positional with qs.
type BatchSearcher interface {
	SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []Stats, error)
}

// Reporter is the optional telemetry capability, detected on the Searcher by
// New like BatchSearcher: the one source of every block of /stats and
// /metrics that the handler does not count itself. Each GET takes exactly one
// Report, so the blocks of one response describe one instant.
type Reporter interface {
	Report() Report
}

// Report is one snapshot of a deployment's telemetry. A nil block is a block
// the deployment does not have, and its key is absent from the response.
type Report struct {
	IO        *IOStats        // /metrics "io"
	Maintain  *RebuildStats   // /stats "maintain"
	CostModel *CostModelStats // /metrics "costmodel"
	Ingest    *IngestStats    // "ingest" on both
	Shards    []ShardStat     // "shards" on both
}

// Stats is the per-query statistics subset exposed over the wire.
type Stats struct {
	Candidates  int           `json:"candidates"`
	Hits        int           `json:"cache_hits"`
	Pruned      int           `json:"pruned"`
	TrueHits    int           `json:"true_hits"`
	Remaining   int           `json:"remaining"`
	Fetched     int           `json:"fetched"`
	PageReads   int64         `json:"page_reads"`
	SimulatedIO time.Duration `json:"simulated_io_ns"`

	// Per-stage CPU timings (Algorithm 1's phases), feeding /metrics.
	GenTime    time.Duration `json:"gen_ns"`
	ReduceTime time.Duration `json:"reduce_ns"`
	RefineTime time.Duration `json:"refine_ns"`

	// Degraded marks a query answered without one or more quarantined
	// shards (see FailedShards): the results are correct over the surviving
	// shards but may miss neighbors stored on the failed ones. Only set on
	// sharded deployments serving with -degraded-ok.
	Degraded     bool  `json:"degraded,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
}

// Config sizes and guards the handler.
type Config struct {
	// Dim validates request vectors.
	Dim int
	// MaxK caps k (default 1000).
	MaxK int
	// MaxInFlight is the admission limit: searches beyond this many in
	// flight are shed with 503 instead of queueing behind a saturated
	// worker pool (default 256). /stats and /healthz are never gated.
	MaxInFlight int
	// MaxBatch caps the number of vectors accepted by one /search/batch
	// request (default 64). A batch charges the admission gate one slot per
	// vector, so MaxBatch also bounds how much of MaxInFlight one request
	// can claim.
	MaxBatch int
}

func (c Config) withDefaults() Config {
	if c.MaxK < 1 {
		c.MaxK = 1000
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 256
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 64
	}
	return c
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the search was abandoned because the client went away, which is
// neither the client's request being bad nor the server failing.
const statusClientClosedRequest = 499

// Handler serves the HTTP API. It is built whole by New and never mutated
// afterwards. All counters are lock-free atomics: under concurrent load every
// request used to serialize on one mutex just to bump four integers, which is
// exactly the kind of contention the allocation-free engine path removes
// elsewhere.
type Handler struct {
	mux      *http.ServeMux
	searcher Searcher
	batch    BatchSearcher // nil when the searcher has no batch capability
	ingestor Ingestor      // nil when the searcher has no write path
	reporter Reporter      // nil when the searcher reports no telemetry
	cfg      Config

	// gate is the admission semaphore: buffered to MaxInFlight, one slot
	// held per in-flight search or write (a batch holds one per vector).
	// len(gate) is the live queue depth.
	gate chan struct{}

	queries   atomic.Int64
	fetched   atomic.Int64
	hits      atomic.Int64
	cands     atomic.Int64
	remaining atomic.Int64

	shed       atomic.Int64 // gate slots refused (searches, writes, batch members)
	canceled   atomic.Int64 // searches abandoned by client disconnect/deadline
	encodeErrs atomic.Int64 // response bodies that failed to write (client gone)

	degraded  atomic.Int64 // searches answered without a quarantined shard
	transient atomic.Int64 // searches failed (then 503'd) on transient I/O errors

	batches   atomic.Int64 // /search/batch requests served
	batchShed atomic.Int64 // batches refused because the gate lacked slots

	inserts   atomic.Int64 // /insert requests answered 200
	deletes   atomic.Int64 // /delete requests answered 200
	writeErrs atomic.Int64 // write requests failed 5xx
	writeShed atomic.Int64 // write requests shed by the admission gate

	latTotal      Histogram // wall clock of the whole search request
	latReduce     Histogram // Phase-2 candidate reduction CPU
	latRefine     Histogram // Phase-3 refinement CPU + simulated I/O
	latBatch      Histogram // wall clock of one whole batch request
	latBatchQuery Histogram // batch wall clock amortized per member query
	latInsert     Histogram
	latDelete     Histogram
}

// RebuildStats reports the maintainer's background cache-rebuild activity
// over /stats, so operators can watch non-blocking rebuilds (and their
// failures) without scraping logs.
type RebuildStats struct {
	Rebuilds        int  `json:"rebuilds"`
	RebuildErrors   int  `json:"rebuild_errors"`
	RebuildInFlight bool `json:"rebuild_in_flight"`

	// LastRebuildWall is how long the most recent background build took
	// (nanoseconds); LastRebuildAt is its completion time in RFC 3339. Both
	// are absent until the first rebuild lands.
	LastRebuildWall time.Duration `json:"last_rebuild_wall_ns,omitempty"`
	LastRebuildAt   string        `json:"last_rebuild_at,omitempty"`

	// Retunes counts adaptive-τ retune rebuilds (a subset of Rebuilds); Tau
	// is the serving engine's code length. Tau is 0 on a sharded aggregate
	// whose shards have retuned to different code lengths.
	Retunes int `json:"retunes"`
	Tau     int `json:"tau,omitempty"`
}

// ShardStat is one shard's statistics block for /stats and /metrics on a
// sharded deployment: how the shard's points, cache and query load are
// distributed, so a hot or cold shard is visible at a glance.
type ShardStat struct {
	Shard         int     `json:"shard"`
	Points        int     `json:"points"`
	CachedItems   int     `json:"cached_items"`
	CacheCapacity int     `json:"cache_capacity"`
	Queries       int64   `json:"queries"`
	Candidates    int64   `json:"candidates"`
	Hits          int64   `json:"cache_hits"`
	HitRatio      float64 `json:"hit_ratio"`
	Remaining     int64   `json:"remaining"`
	RefineRatio   float64 `json:"refine_ratio"`
	Fetched       int64   `json:"fetched"`
	PageReads     int64   `json:"page_reads"`

	// RhoHitEwma / RhoRefineEwma are the shard's exponentially weighted
	// observed ratios — where the shard's traffic is *now*, versus the
	// since-startup HitRatio/RefineRatio means above.
	RhoHitEwma    float64 `json:"rho_hit_ewma"`
	RhoRefineEwma float64 `json:"rho_refine_ewma"`

	// Quarantined marks a shard currently served around after a permanent
	// storage failure; FetchFailures counts the failures that put it there.
	Quarantined   bool  `json:"quarantined,omitempty"`
	FetchFailures int64 `json:"fetch_failures,omitempty"`

	// Maintain carries the shard's own rebuild activity when the sharded
	// maintainer is running (each shard rebuilds independently).
	Maintain *RebuildStats `json:"maintain,omitempty"`

	// CostModel carries the shard's drift-watchdog telemetry when adaptive
	// τ re-tuning is armed (each shard retunes independently).
	CostModel *CostModelStats `json:"costmodel,omitempty"`
}

// IOStats is the storage-layer fault/retry telemetry for /metrics: retries
// that recovered transient faults, and the error counts by classification.
// These are device-level counters — retries do not inflate the logical
// page_reads the cache model is judged on.
type IOStats struct {
	Retries         int64 `json:"io_retries"`
	TransientErrors int64 `json:"io_errors_transient"`
	PermanentErrors int64 `json:"io_errors_permanent"`
}

// CostModelStats is the drift watchdog's telemetry block for /metrics:
// observed vs model-predicted ρ_hit/ρ_refine, the serving and recommended
// code lengths, and the retune counters. All model quantities reflect the
// most recently evaluated drift window.
type CostModelStats struct {
	Tau            int `json:"tau"`
	RecommendedTau int `json:"recommended_tau"`

	ObservedRhoHit    float64 `json:"observed_rho_hit"`
	ObservedRhoRefine float64 `json:"observed_rho_refine"`

	PredictedRhoHit    float64 `json:"predicted_rho_hit"`
	PredictedRhoRefine float64 `json:"predicted_rho_refine"`

	PredictedCrefine float64 `json:"predicted_crefine"`
	BestCrefine      float64 `json:"best_crefine"`
	Improvement      float64 `json:"improvement"`

	PendingWindows int   `json:"pending_windows"`
	Windows        int64 `json:"windows"`
	Retunes        int64 `json:"retunes"`
}

// New builds the handler over s, discovering on it the optional capabilities
// (batch search, the write path, the telemetry report) and registering every
// route the result serves: POST /insert and /delete exist only over an
// Ingestor, and /search/batch answers 501 without a BatchSearcher.
func New(s Searcher, cfg Config) *Handler {
	cfg = cfg.withDefaults()
	h := &Handler{
		mux:      http.NewServeMux(),
		searcher: s,
		cfg:      cfg,
		gate:     make(chan struct{}, cfg.MaxInFlight),
	}
	h.batch, _ = s.(BatchSearcher)
	h.ingestor, _ = s.(Ingestor)
	h.reporter, _ = s.(Reporter)
	h.mux.HandleFunc("POST /search", h.handleSearch)
	h.mux.HandleFunc("POST /search/batch", h.handleSearchBatch)
	if h.ingestor != nil {
		h.mux.HandleFunc("POST /insert", h.handleInsert)
		h.mux.HandleFunc("POST /delete", h.handleDelete)
	}
	h.mux.HandleFunc("GET /stats", h.handleStats)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

type searchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
}

type searchResponse struct {
	IDs   []int `json:"ids"`
	Stats Stats `json:"stats"`

	// Degraded mirrors Stats.Degraded at the top level so clients that only
	// look at ids cannot miss that the answer may be partial.
	Degraded bool `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON is the single place a response body is produced. The status
// line goes out before the body, so a failed encode means the client
// disconnected mid-response (or the body was half-written): it is recorded
// in encodeErrs and nothing further is written — a second WriteHeader after
// a partial body would corrupt the keep-alive connection for the next
// request.
func (h *Handler) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		h.encodeErrs.Add(1)
	}
}

func (h *Handler) fail(w http.ResponseWriter, code int, format string, args ...any) {
	h.writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// The request prologue — admission, bounded decode, validation — and the
// search epilogue — error mapping, counter fold — are written once below;
// /search, /search/batch, /insert and /delete are assembled from them.

// admit takes n slots of the admission gate, all or nothing, and returns how
// many it could not get: 0 means admitted, and the caller owes release(n).
// On refusal the partial take is handed back and the shortfall counted as
// shed, so the caller only answers 503. Shedding keeps tail latency bounded
// for admitted requests instead of queueing everyone behind a saturated
// worker pool; a batch is shed whole because partial admission would let
// batches starve single queries while still doing a batch's work.
func (h *Handler) admit(n int) (short int) {
	for got := 0; got < n; got++ {
		select {
		case h.gate <- struct{}{}:
		default:
			h.release(got)
			h.shed.Add(int64(n - got))
			return n - got
		}
	}
	return 0
}

func (h *Handler) release(n int) {
	for ; n > 0; n-- {
		<-h.gate
	}
}

// decode reads the request body, at most limit bytes of it, as JSON into v,
// answering 400 when it cannot.
func (h *Handler) decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		h.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// vectorProblem says what is wrong with a request vector — the tail of a 400
// message, after the vector's name — or "" when it has the served
// dimensionality and only finite components. NaN compares false against every
// bound, so letting one into the reduction core silently corrupts the lb/ub
// pruning and returns wrong neighbors with 200 OK — it must die here.
func (h *Handler) vectorProblem(v []float32) string {
	if len(v) != h.cfg.Dim {
		return fmt.Sprintf(" has %d dimensions, engine serves %d", len(v), h.cfg.Dim)
	}
	if j := firstNonFinite(v); j >= 0 {
		return fmt.Sprintf("[%d] is not finite", j)
	}
	return ""
}

// firstNonFinite returns the index of the first NaN or ±Inf component, or
// -1 when the vector is finite.
func firstNonFinite(v []float32) int {
	for i, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}

// checkK answers 400 unless k is in [1, MaxK].
func (h *Handler) checkK(w http.ResponseWriter, k int) bool {
	if k < 1 || k > h.cfg.MaxK {
		h.fail(w, http.StatusBadRequest, "k must be in [1, %d], got %d", h.cfg.MaxK, k)
		return false
	}
	return true
}

// searchFailed answers a failed search ("search") or batch ("batch").
func (h *Handler) searchFailed(w http.ResponseWriter, r *http.Request, what string, err error) {
	switch {
	case r.Context().Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client is gone (or its deadline passed): the engine abandoned
		// the search before refinement I/O. The response is best-effort —
		// usually nobody is listening.
		h.canceled.Add(1)
		h.fail(w, statusClientClosedRequest, "%s abandoned: %v", what, err)
	case disk.IsTransient(err):
		// A transient storage fault exhausted the retry budget. The condition
		// is expected to clear, so tell the client to retry rather than
		// reporting a server fault.
		h.transient.Add(1)
		w.Header().Set("Retry-After", "1")
		h.fail(w, http.StatusServiceUnavailable, "transient storage error, retry: %v", err)
	default:
		h.fail(w, http.StatusInternalServerError, "%s failed: %v", what, err)
	}
}

// observe folds one answered query into the aggregate counters and the
// per-stage histograms; the request-level wall clock is the caller's.
func (h *Handler) observe(st *Stats) {
	if st.Degraded {
		h.degraded.Add(1)
	}
	h.queries.Add(1)
	h.fetched.Add(int64(st.Fetched))
	h.hits.Add(int64(st.Hits))
	h.cands.Add(int64(st.Candidates))
	h.remaining.Add(int64(st.Remaining))
	h.latReduce.Observe(st.ReduceTime)
	h.latRefine.Observe(st.RefineTime + st.SimulatedIO)
}

func (h *Handler) handleSearch(w http.ResponseWriter, r *http.Request) {
	if h.admit(1) > 0 {
		h.fail(w, http.StatusServiceUnavailable,
			"saturated: %d searches in flight; retry with backoff", cap(h.gate))
		return
	}
	defer h.release(1)

	var req searchRequest
	if !h.decode(w, r, 1<<22, &req) {
		return
	}
	if p := h.vectorProblem(req.Vector); p != "" {
		h.fail(w, http.StatusBadRequest, "vector%s", p)
		return
	}
	if !h.checkK(w, req.K) {
		return
	}

	start := time.Now()
	ids, st, err := h.searcher.Search(r.Context(), req.Vector, req.K)
	if err != nil {
		h.searchFailed(w, r, "search", err)
		return
	}
	h.observe(&st)
	h.latTotal.Observe(time.Since(start))
	h.writeJSON(w, http.StatusOK, searchResponse{IDs: ids, Stats: st, Degraded: st.Degraded})
}

type batchSearchRequest struct {
	Vectors [][]float32 `json:"vectors"`
	K       int         `json:"k"`
}

// batchSummary is the request-level accounting of one coalesced batch: how
// much refinement I/O the whole batch paid (the sum of the per-query
// attributions — coalescing means this is at most, usually well below, what
// the same queries cost one at a time).
type batchSummary struct {
	Queries   int           `json:"queries"`
	PageReads int64         `json:"page_reads"`
	Wall      time.Duration `json:"wall_ns"`
}

type batchSearchResponse struct {
	Results []searchResponse `json:"results"`
	Batch   batchSummary     `json:"batch"`
}

// handleSearchBatch serves POST /search/batch: one request, many vectors,
// one coalesced refinement pass. The admission gate is charged one slot per
// vector — a batch is that much work — so the request is validated first,
// when its size is known.
func (h *Handler) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if h.batch == nil {
		h.fail(w, http.StatusNotImplemented, "engine does not support batch search")
		return
	}
	var req batchSearchRequest
	if !h.decode(w, r, 1<<24, &req) {
		return
	}
	n := len(req.Vectors)
	if n < 1 {
		h.fail(w, http.StatusBadRequest, "batch needs at least one vector")
		return
	}
	if n > h.cfg.MaxBatch {
		h.fail(w, http.StatusBadRequest, "batch has %d vectors, limit is %d", n, h.cfg.MaxBatch)
		return
	}
	if !h.checkK(w, req.K) {
		return
	}
	for i, v := range req.Vectors {
		if p := h.vectorProblem(v); p != "" {
			h.fail(w, http.StatusBadRequest, "vectors[%d]%s", i, p)
			return
		}
	}
	if short := h.admit(n); short > 0 {
		h.batchShed.Add(1)
		h.fail(w, http.StatusServiceUnavailable,
			"saturated: batch of %d needs %d more slots of %d; retry with backoff", n, short, cap(h.gate))
		return
	}
	defer h.release(n)

	start := time.Now()
	ids, sts, err := h.batch.SearchBatch(r.Context(), req.Vectors, req.K)
	if err != nil {
		h.searchFailed(w, r, "batch", err)
		return
	}
	wall := time.Since(start)
	h.batches.Add(1)
	h.latBatch.Observe(wall)
	perQuery := wall / time.Duration(n)
	resp := batchSearchResponse{
		Results: make([]searchResponse, n),
		Batch:   batchSummary{Queries: n, Wall: wall},
	}
	for i := range ids {
		st := &sts[i]
		resp.Results[i] = searchResponse{IDs: ids[i], Stats: *st, Degraded: st.Degraded}
		resp.Batch.PageReads += st.PageReads
		h.observe(st)
		h.latBatchQuery.Observe(perQuery)
	}
	h.writeJSON(w, http.StatusOK, resp)
}

// report takes the request's one telemetry snapshot (empty without a
// Reporter).
func (h *Handler) report() Report {
	if h.reporter == nil {
		return Report{}
	}
	return h.reporter.Report()
}

type statsResponse struct {
	Queries     int64         `json:"queries"`
	AvgFetched  float64       `json:"avg_fetched"`
	HitRatio    float64       `json:"hit_ratio"`
	RefineRatio float64       `json:"refine_ratio"`
	AvgCandSize float64       `json:"avg_candidates"`
	Maintain    *RebuildStats `json:"maintain,omitempty"`
	Ingest      *IngestStats  `json:"ingest,omitempty"`
	Shards      []ShardStat   `json:"shards,omitempty"`
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := h.report()
	queries := h.queries.Load()
	cands := h.cands.Load()
	resp := statsResponse{Queries: queries, Maintain: rep.Maintain, Ingest: rep.Ingest, Shards: rep.Shards}
	if queries > 0 {
		resp.AvgFetched = float64(h.fetched.Load()) / float64(queries)
		resp.AvgCandSize = float64(cands) / float64(queries)
	}
	if cands > 0 {
		resp.HitRatio = float64(h.hits.Load()) / float64(cands)
		resp.RefineRatio = float64(h.remaining.Load()) / float64(cands)
	}
	h.writeJSON(w, http.StatusOK, resp)
}

type latencyMetrics struct {
	Total      HistogramSnapshot `json:"total"`
	Reduce     HistogramSnapshot `json:"phase2_reduce"`
	RefineIO   HistogramSnapshot `json:"refine_io"`
	Batch      HistogramSnapshot `json:"batch"`
	BatchQuery HistogramSnapshot `json:"batch_query"`
}

type metricsResponse struct {
	Queries        int64 `json:"queries"`
	Batches        int64 `json:"batches"`
	InFlight       int   `json:"in_flight"`
	AdmissionLimit int   `json:"admission_limit"`
	Shed           int64 `json:"shed"`
	BatchShed      int64 `json:"batch_shed"`
	Canceled       int64 `json:"canceled"`
	EncodeErrors   int64 `json:"encode_errors"`

	// Fault-tolerance counters: searches answered around a quarantined shard,
	// searches 503'd on an unrecovered transient fault, and the storage
	// layer's retry/error totals.
	DegradedSearches  int64    `json:"degraded_searches"`
	TransientFailures int64    `json:"transient_failures"`
	IO                *IOStats `json:"io,omitempty"`

	// CostModel is the adaptive-τ watchdog block (observed vs predicted
	// ratios, recommended τ, retune counts); each shards[] entry additionally
	// carries its own.
	CostModel *CostModelStats `json:"costmodel,omitempty"`

	// Ingest is the live write-path block (WAL, delta, compactions, request
	// counters).
	Ingest *ingestMetrics `json:"ingest,omitempty"`

	Latency latencyMetrics `json:"latency"`
	Shards  []ShardStat    `json:"shards,omitempty"`
}

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := h.report()
	h.writeJSON(w, http.StatusOK, metricsResponse{
		Queries:           h.queries.Load(),
		Batches:           h.batches.Load(),
		InFlight:          len(h.gate),
		AdmissionLimit:    cap(h.gate),
		Shed:              h.shed.Load(),
		BatchShed:         h.batchShed.Load(),
		Canceled:          h.canceled.Load(),
		EncodeErrors:      h.encodeErrs.Load(),
		DegradedSearches:  h.degraded.Load(),
		TransientFailures: h.transient.Load(),
		IO:                rep.IO,
		CostModel:         rep.CostModel,
		Ingest:            h.ingestMetrics(rep.Ingest),
		Latency: latencyMetrics{
			Total:      h.latTotal.Snapshot(),
			Reduce:     h.latReduce.Snapshot(),
			RefineIO:   h.latRefine.Snapshot(),
			Batch:      h.latBatch.Snapshot(),
			BatchQuery: h.latBatchQuery.Snapshot(),
		},
		Shards: rep.Shards,
	})
}
