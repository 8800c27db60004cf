package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSearcher returns the first k ids and canned stats, or an error for a
// poisoned first coordinate. It counts calls and honors the request
// context, like the real engines do.
type fakeSearcher struct {
	calls atomic.Int64
}

func (s *fakeSearcher) Search(ctx context.Context, q []float32, k int) ([]int, Stats, error) {
	s.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if len(q) > 0 && q[0] == -1 {
		return nil, Stats{}, fmt.Errorf("injected failure")
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	return ids, Stats{
		Candidates: 4 * k, Hits: 2 * k, Fetched: k,
		ReduceTime: 5 * time.Microsecond, RefineTime: 20 * time.Microsecond,
	}, nil
}

func newTestHandler() (*Handler, *fakeSearcher) {
	s := &fakeSearcher{}
	return New(s, Config{Dim: 3, MaxK: 50}), s
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	h, _ := newTestHandler()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, srv *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getJSON(t *testing.T, srv *httptest.Server, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSearchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, out := post(t, srv, `{"vector":[1,2,3],"k":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if ids := out["ids"].([]any); len(ids) != 4 {
		t.Fatalf("ids = %v", ids)
	}
	st := out["stats"].(map[string]any)
	if st["candidates"].(float64) != 16 || st["cache_hits"].(float64) != 8 {
		t.Fatalf("stats = %v", st)
	}
}

func TestValidationAndErrors(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		body string
		code int
	}{
		{`{"vector":[1,2],"k":4}`, http.StatusBadRequest},             // wrong dim
		{`{"vector":[1,2,3],"k":0}`, http.StatusBadRequest},           // k too small
		{`{"vector":[1,2,3],"k":999}`, http.StatusBadRequest},         // k above cap
		{`{"vector":`, http.StatusBadRequest},                         // malformed
		{`{"vector":[-1,2,3],"k":4}`, http.StatusInternalServerError}, // engine failure
	}
	for _, c := range cases {
		resp, out := post(t, srv, c.body)
		if resp.StatusCode != c.code {
			t.Fatalf("%s: status %d, want %d (%v)", c.body, resp.StatusCode, c.code, out)
		}
		if out["error"] == "" {
			t.Fatalf("%s: missing error message", c.body)
		}
	}
}

// TestNonFiniteVectorRejected is the regression test for the NaN-pruning
// bug: a NaN compares false against every bound, silently corrupting the
// lb/ub reduction and returning wrong neighbors with 200 OK. No non-finite
// vector — however encoded — may reach Searcher.Search.
func TestNonFiniteVectorRejected(t *testing.T) {
	// The validation gate itself, on decoded vectors (the path a future
	// binary/batch transport would take).
	for i, v := range [][]float32{
		{float32(math.NaN()), 0, 0},
		{0, float32(math.Inf(1)), 0},
		{0, 0, float32(math.Inf(-1))},
	} {
		if j := firstNonFinite(v); j < 0 {
			t.Fatalf("case %d: non-finite vector passed validation", i)
		}
	}
	if firstNonFinite([]float32{1, -2, 3.5}) != -1 {
		t.Fatal("finite vector rejected")
	}

	// Every JSON encoding a client could attempt: the bare NaN/Infinity
	// literals are invalid JSON, and out-of-range numerals fail to decode —
	// each must 400 without the searcher ever being called.
	s := &fakeSearcher{}
	h := New(s, Config{Dim: 3, MaxK: 50})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, body := range []string{
		`{"vector":[NaN,0,0],"k":1}`,
		`{"vector":[Infinity,0,0],"k":1}`,
		`{"vector":[-Infinity,0,0],"k":1}`,
		`{"vector":[1e999,0,0],"k":1}`,
		`{"vector":[-1e999,0,0],"k":1}`,
		`{"vector":[1e39,0,0],"k":1}`, // overflows float32
	} {
		resp, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := s.calls.Load(); n != 0 {
		t.Fatalf("non-finite query reached Searcher.Search %d times", n)
	}
}

// blockingSearcher parks every search until released, so tests can hold the
// admission gate full.
type blockingSearcher struct {
	started chan struct{}
	release chan struct{}
}

func (s *blockingSearcher) Search(ctx context.Context, q []float32, k int) ([]int, Stats, error) {
	s.started <- struct{}{}
	select {
	case <-s.release:
		return []int{0}, Stats{}, nil
	case <-ctx.Done():
		return nil, Stats{}, ctx.Err()
	}
}

func TestAdmissionGateSheds(t *testing.T) {
	bs := &blockingSearcher{started: make(chan struct{}, 8), release: make(chan struct{})}
	h := New(bs, Config{Dim: 1, MaxInFlight: 2})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/search", "application/json",
				bytes.NewReader([]byte(`{"vector":[1],"k":1}`)))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	// Wait for both to be inside the searcher (holding the two gate slots).
	<-bs.started
	<-bs.started

	// The gate is full: the third request must be shed with 503 and show up
	// in the shed counter and queue depth on /metrics.
	resp, out := post(t, srv, `{"vector":[1],"k":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated request: status %d, want 503 (%v)", resp.StatusCode, out)
	}
	m := getJSON(t, srv, "/metrics")
	if m["shed"].(float64) != 1 {
		t.Fatalf("shed = %v, want 1", m["shed"])
	}
	if m["in_flight"].(float64) != 2 || m["admission_limit"].(float64) != 2 {
		t.Fatalf("in_flight/limit = %v/%v, want 2/2", m["in_flight"], m["admission_limit"])
	}

	close(bs.release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("admitted request finished with %d", c)
		}
	}
	m = getJSON(t, srv, "/metrics")
	if m["in_flight"].(float64) != 0 {
		t.Fatalf("in_flight after drain = %v", m["in_flight"])
	}
}

// explodingWriter fails every body write, simulating a client that
// disconnected between the status line and the body.
type explodingWriter struct {
	header       http.Header
	headerWrites int
}

func (w *explodingWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *explodingWriter) WriteHeader(int)           { w.headerWrites++ }
func (w *explodingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

func TestEncodeFailureRecordedOnce(t *testing.T) {
	h, _ := newTestHandler()
	req := httptest.NewRequest(http.MethodPost, "/search",
		bytes.NewReader([]byte(`{"vector":[1,2,3],"k":2}`)))
	ew := &explodingWriter{}
	h.ServeHTTP(ew, req)
	if got := h.encodeErrs.Load(); got != 1 {
		t.Fatalf("encodeErrs = %d, want 1", got)
	}
	if ew.headerWrites != 1 {
		t.Fatalf("WriteHeader called %d times after the failed body write, want exactly 1", ew.headerWrites)
	}

	// The failure is visible to operators on /metrics.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m metricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.EncodeErrors != 1 {
		t.Fatalf("/metrics encode_errors = %d, want 1", m.EncodeErrors)
	}
}

func TestCanceledRequestCounted(t *testing.T) {
	h, s := newTestHandler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the search starts
	req := httptest.NewRequest(http.MethodPost, "/search",
		bytes.NewReader([]byte(`{"vector":[1,2,3],"k":2}`))).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if h.canceled.Load() != 1 {
		t.Fatalf("canceled = %d, want 1", h.canceled.Load())
	}
	if h.queries.Load() != 0 {
		t.Fatal("abandoned search counted as a completed query")
	}
	_ = s
}

func TestStatsAggregation(t *testing.T) {
	srv := newTestServer(t)
	for i := 0; i < 3; i++ {
		post(t, srv, `{"vector":[1,2,3],"k":5}`)
	}
	out := getJSON(t, srv, "/stats")
	if out["queries"].(float64) != 3 {
		t.Fatalf("stats = %v", out)
	}
	if out["hit_ratio"].(float64) != 0.5 {
		t.Fatalf("hit ratio = %v", out["hit_ratio"])
	}
	if out["avg_fetched"].(float64) != 5 {
		t.Fatalf("avg fetched = %v", out["avg_fetched"])
	}
}

func TestMetricsLatencyHistograms(t *testing.T) {
	srv := newTestServer(t)
	for i := 0; i < 4; i++ {
		post(t, srv, `{"vector":[1,2,3],"k":5}`)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Queries != 4 {
		t.Fatalf("queries = %d", m.Queries)
	}
	for name, h := range map[string]HistogramSnapshot{
		"total": m.Latency.Total, "reduce": m.Latency.Reduce, "refine_io": m.Latency.RefineIO,
	} {
		if h.Count != 4 {
			t.Fatalf("%s histogram count = %d, want 4", name, h.Count)
		}
		if len(h.Bucket) == 0 {
			t.Fatalf("%s histogram has no buckets", name)
		}
		if h.P50US <= 0 || h.P99US < h.P50US {
			t.Fatalf("%s quantiles look wrong: p50=%d p99=%d", name, h.P50US, h.P99US)
		}
	}
	// The fake reports 5µs reduce / 20µs refine: the quantile upper bounds
	// must bracket them (geometric buckets overestimate by at most 2×).
	if p := m.Latency.Reduce.P50US; p < 5 || p > 10 {
		t.Fatalf("reduce p50 = %dµs, want within [5,10]", p)
	}
	if p := m.Latency.RefineIO.P50US; p < 20 || p > 40 {
		t.Fatalf("refine p50 = %dµs, want within [20,40]", p)
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	durations := []time.Duration{
		0, 800 * time.Nanosecond, 3 * time.Microsecond, 3 * time.Microsecond,
		100 * time.Microsecond, 20 * time.Millisecond, 3 * time.Second, -time.Second,
	}
	for _, d := range durations {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != int64(len(durations)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durations))
	}
	var n int64
	for _, b := range s.Bucket {
		n += b.N
		if b.N <= 0 {
			t.Fatalf("empty bucket emitted: %+v", b)
		}
	}
	if n != s.Count {
		t.Fatalf("bucket sum %d != count %d", n, s.Count)
	}
	if s.P50US > s.P90US || s.P90US > s.P99US {
		t.Fatalf("quantiles not monotone: %d %d %d", s.P50US, s.P90US, s.P99US)
	}
	// 3s lands in the (2^21, 2^22]µs bucket; p99 must reach it.
	if s.P99US < 3_000_000 {
		t.Fatalf("p99 = %dµs, want ≥ 3s", s.P99US)
	}
}

// fakeBatchSearcher adds the batch capability: per-query canned stats with 3
// page reads each, an injected failure for a poisoned first vector, and
// context awareness.
type fakeBatchSearcher struct {
	fakeSearcher
	batchCalls atomic.Int64
}

func (s *fakeBatchSearcher) SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []Stats, error) {
	s.batchCalls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ids := make([][]int, len(qs))
	sts := make([]Stats, len(qs))
	for j, q := range qs {
		if len(q) > 0 && q[0] == -1 {
			return nil, nil, fmt.Errorf("injected batch failure")
		}
		ids[j] = make([]int, k)
		for i := range ids[j] {
			ids[j][i] = i
		}
		sts[j] = Stats{Candidates: 4 * k, Hits: 2 * k, Fetched: k, PageReads: 3}
	}
	return ids, sts, nil
}

func postBatch(t *testing.T, srv *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/search/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestBatchSearchEndpoint(t *testing.T) {
	s := &fakeBatchSearcher{}
	srv := httptest.NewServer(New(s, Config{Dim: 3, MaxK: 50}))
	defer srv.Close()

	resp, out := postBatch(t, srv, `{"vectors":[[1,2,3],[4,5,6]],"k":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	for j, r := range results {
		rm := r.(map[string]any)
		if ids := rm["ids"].([]any); len(ids) != 4 {
			t.Fatalf("result %d ids = %v", j, ids)
		}
		if st := rm["stats"].(map[string]any); st["page_reads"].(float64) != 3 {
			t.Fatalf("result %d stats = %v", j, st)
		}
	}
	batch := out["batch"].(map[string]any)
	if batch["queries"].(float64) != 2 || batch["page_reads"].(float64) != 6 {
		t.Fatalf("batch summary = %v", batch)
	}
	if batch["wall_ns"].(float64) < 0 {
		t.Fatalf("batch wall = %v", batch["wall_ns"])
	}

	// Batch members count as queries; batch histograms observe once per
	// batch and once per member.
	var m metricsResponse
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Batches != 1 || m.Queries != 2 {
		t.Fatalf("batches/queries = %d/%d, want 1/2", m.Batches, m.Queries)
	}
	if m.Latency.Batch.Count != 1 {
		t.Fatalf("batch histogram count = %d, want 1", m.Latency.Batch.Count)
	}
	if m.Latency.BatchQuery.Count != 2 {
		t.Fatalf("batch_query histogram count = %d, want 2", m.Latency.BatchQuery.Count)
	}
	if m.Latency.Reduce.Count != 2 {
		t.Fatalf("per-stage histograms missed batch members: reduce count = %d", m.Latency.Reduce.Count)
	}
}

func TestBatchSearchValidation(t *testing.T) {
	s := &fakeBatchSearcher{}
	srv := httptest.NewServer(New(s, Config{Dim: 3, MaxK: 50, MaxBatch: 2}))
	defer srv.Close()

	cases := []struct {
		body string
		code int
	}{
		{`{"vectors":[],"k":4}`, http.StatusBadRequest},                        // empty batch
		{`{"vectors":[[1,2,3],[1,2,3],[1,2,3]],"k":4}`, http.StatusBadRequest}, // above MaxBatch
		{`{"vectors":[[1,2,3]],"k":0}`, http.StatusBadRequest},                 // k too small
		{`{"vectors":[[1,2,3]],"k":999}`, http.StatusBadRequest},               // k above cap
		{`{"vectors":[[1,2,3],[1,2]],"k":4}`, http.StatusBadRequest},           // wrong dim
		{`{"vectors":[[1,2,3],[1,1e999,3]],"k":4}`, http.StatusBadRequest},     // non-finite
		{`{"vectors":`, http.StatusBadRequest},                                 // malformed
		{`{"vectors":[[-1,2,3]],"k":4}`, http.StatusInternalServerError},       // engine failure
	}
	for _, c := range cases {
		resp, out := postBatch(t, srv, c.body)
		if resp.StatusCode != c.code {
			t.Fatalf("%s: status %d, want %d (%v)", c.body, resp.StatusCode, c.code, out)
		}
		if out["error"] == "" {
			t.Fatalf("%s: missing error message", c.body)
		}
	}
	// Only the engine-failure case may reach the searcher.
	if n := s.batchCalls.Load(); n != 1 {
		t.Fatalf("invalid batches reached SearchBatch: %d calls, want 1", n)
	}
}

// TestBatchSearchNotImplemented: a searcher without the batch capability
// serves 501 on /search/batch instead of panicking or pretending.
func TestBatchSearchNotImplemented(t *testing.T) {
	srv := newTestServer(t)
	resp, out := postBatch(t, srv, `{"vectors":[[1,2,3]],"k":4}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501 (%v)", resp.StatusCode, out)
	}
}

// TestBatchAdmissionAllOrNothing: a batch needing more gate slots than exist
// is shed whole — partially acquired slots are returned, so the gate drains
// back to empty and a smaller batch is admitted.
func TestBatchAdmissionAllOrNothing(t *testing.T) {
	s := &fakeBatchSearcher{}
	h := New(s, Config{Dim: 1, MaxInFlight: 1, MaxBatch: 8})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, out := postBatch(t, srv, `{"vectors":[[1],[2]],"k":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversized batch: status %d, want 503 (%v)", resp.StatusCode, out)
	}
	if s.batchCalls.Load() != 0 {
		t.Fatal("shed batch reached the searcher")
	}
	m := getJSON(t, srv, "/metrics")
	if m["batch_shed"].(float64) != 1 {
		t.Fatalf("batch_shed = %v, want 1", m["batch_shed"])
	}
	if m["shed"].(float64) != 1 {
		t.Fatalf("shed = %v, want 1 (the one unacquirable slot)", m["shed"])
	}
	if m["in_flight"].(float64) != 0 {
		t.Fatalf("in_flight = %v after shed batch — partial slots leaked", m["in_flight"])
	}

	// A batch that fits the gate goes through.
	resp, out = postBatch(t, srv, `{"vectors":[[1]],"k":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fitting batch: status %d (%v)", resp.StatusCode, out)
	}
	m = getJSON(t, srv, "/metrics")
	if m["in_flight"].(float64) != 0 {
		t.Fatalf("in_flight = %v after completed batch", m["in_flight"])
	}
}

func TestBatchCanceledRequestCounted(t *testing.T) {
	s := &fakeBatchSearcher{}
	h := New(s, Config{Dim: 3, MaxK: 50})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/search/batch",
		bytes.NewReader([]byte(`{"vectors":[[1,2,3]],"k":2}`))).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if h.canceled.Load() != 1 {
		t.Fatalf("canceled = %d, want 1", h.canceled.Load())
	}
	if h.queries.Load() != 0 || h.batches.Load() != 0 {
		t.Fatal("abandoned batch counted as completed work")
	}
}

// reportingSearcher adds the telemetry capability: a canned Report, and a
// count of how often the handler asked for it.
type reportingSearcher struct {
	fakeSearcher
	rep     Report
	reports atomic.Int64
}

func (s *reportingSearcher) Report() Report {
	s.reports.Add(1)
	return s.rep
}

func newReportingServer(t *testing.T, rep Report) (*httptest.Server, *reportingSearcher) {
	t.Helper()
	s := &reportingSearcher{rep: rep}
	srv := httptest.NewServer(New(s, Config{Dim: 3, MaxK: 50}))
	t.Cleanup(srv.Close)
	return srv, s
}

// TestOneReportPerResponse: every GET /stats and GET /metrics takes exactly
// one Report, so the blocks of one response describe one instant, and every
// block of that one Report is rendered.
func TestOneReportPerResponse(t *testing.T) {
	srv, s := newReportingServer(t, Report{
		IO:        &IOStats{Retries: 5},
		Maintain:  &RebuildStats{Rebuilds: 2},
		CostModel: &CostModelStats{Windows: 3},
		Ingest:    &IngestStats{IngestCounters: IngestCounters{Inserts: 4}},
		Shards:    []ShardStat{{Shard: 0, Maintain: &RebuildStats{Rebuilds: 2}, CostModel: &CostModelStats{Windows: 3}}},
	})
	for i, path := range []string{"/stats", "/metrics", "/metrics", "/stats"} {
		out := getJSON(t, srv, path)
		if got := s.reports.Load(); got != int64(i+1) {
			t.Fatalf("after %d GETs (last %s) the handler took %d reports", i+1, path, got)
		}
		if out["ingest"].(map[string]any)["inserts"].(float64) != 4 || len(out["shards"].([]any)) != 1 {
			t.Fatalf("%s: %v", path, out)
		}
		if path == "/stats" && out["maintain"].(map[string]any)["rebuilds"].(float64) != 2 {
			t.Fatalf("/stats maintain block: %v", out["maintain"])
		}
		if path == "/metrics" && (out["costmodel"].(map[string]any)["windows"].(float64) != 3 ||
			out["io"].(map[string]any)["io_retries"].(float64) != 5) {
			t.Fatalf("/metrics costmodel/io blocks: %v %v", out["costmodel"], out["io"])
		}
	}
	post(t, srv, `{"vector":[1,2,3],"k":4}`)
	if got := s.reports.Load(); got != 4 {
		t.Fatalf("a search took a report: %d", got)
	}
}

// TestStatsShardBlock reports per-shard rows and checks /stats and /metrics
// render one block per shard, including the nested maintain block.
func TestStatsShardBlock(t *testing.T) {
	srv, _ := newReportingServer(t, Report{Shards: []ShardStat{
		{Shard: 0, Points: 600, CachedItems: 10, CacheCapacity: 20,
			Queries: 7, Candidates: 70, Hits: 35, HitRatio: 0.5, Fetched: 21, PageReads: 9},
		{Shard: 1, Points: 600, CachedItems: 12, CacheCapacity: 20,
			Queries: 7, Candidates: 65, Hits: 13, HitRatio: 0.2, Fetched: 30, PageReads: 14,
			Maintain: &RebuildStats{Rebuilds: 2, LastRebuildWall: 3 * time.Millisecond, LastRebuildAt: "2026-08-08T00:00:00Z"}},
	}})

	for _, path := range []string{"/stats", "/metrics"} {
		out := getJSON(t, srv, path)
		shards, ok := out["shards"].([]any)
		if !ok || len(shards) != 2 {
			t.Fatalf("%s: shards block = %v", path, out["shards"])
		}
		s0 := shards[0].(map[string]any)
		if s0["shard"].(float64) != 0 || s0["points"].(float64) != 600 || s0["cache_hits"].(float64) != 35 {
			t.Fatalf("%s: shard 0 block = %v", path, s0)
		}
		if _, has := s0["maintain"]; has {
			t.Fatalf("%s: shard 0 has a maintain block without a maintainer", path)
		}
		s1 := shards[1].(map[string]any)
		mt, ok := s1["maintain"].(map[string]any)
		if !ok {
			t.Fatalf("%s: shard 1 missing maintain block: %v", path, s1)
		}
		if mt["rebuilds"].(float64) != 2 || mt["last_rebuild_at"].(string) == "" {
			t.Fatalf("%s: shard 1 maintain block = %v", path, mt)
		}
	}
}

// TestStatsNoShardBlockUnsharded pins the unsharded response shape: no
// shards key at all rather than an empty list.
func TestStatsNoShardBlockUnsharded(t *testing.T) {
	srv := newTestServer(t)
	out := getJSON(t, srv, "/stats")
	if _, has := out["shards"]; has {
		t.Fatalf("unsharded /stats has a shards block: %v", out["shards"])
	}
}

// TestBareSearcherShape pins what a Searcher with no optional capability
// serves: the base key sets on /stats and /metrics with no telemetry block at
// all, 501 on /search/batch, and no write routes.
func TestBareSearcherShape(t *testing.T) {
	srv := newTestServer(t)
	for path, want := range map[string][]string{
		"/stats": {"queries", "avg_fetched", "hit_ratio", "refine_ratio", "avg_candidates"},
		"/metrics": {"queries", "batches", "in_flight", "admission_limit", "shed", "batch_shed", "canceled",
			"encode_errors", "degraded_searches", "transient_failures", "latency"},
	} {
		out := getJSON(t, srv, path)
		if len(out) != len(want) {
			t.Fatalf("%s has %d keys, want %d: %v", path, len(out), len(want), out)
		}
		for _, k := range want {
			if _, ok := out[k]; !ok {
				t.Fatalf("%s misses %q: %v", path, k, out)
			}
		}
	}
	for path, want := range map[string]int{
		"/insert":       http.StatusNotFound,
		"/delete":       http.StatusNotFound,
		"/search/batch": http.StatusNotImplemented,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// ingestingSearcher adds the write capability over the blocking searcher, so
// a parked search can hold the gate while a write arrives.
type ingestingSearcher struct {
	blockingSearcher
	inserted atomic.Int64
}

func (s *ingestingSearcher) Insert(ctx context.Context, vec []float32) (int, error) {
	return int(s.inserted.Add(1)) - 1, nil
}

func (s *ingestingSearcher) Delete(ctx context.Context, id int) error {
	if id >= int(s.inserted.Load()) {
		return fmt.Errorf("%w (id %d)", ErrUnknownID, id)
	}
	return nil
}

// TestWritesShareTheAdmissionGate: the write routes exist over an Ingestor,
// pass the same gate as searches, and a refused write counts once in shed and
// once in the ingest block's write_shed.
func TestWritesShareTheAdmissionGate(t *testing.T) {
	s := &ingestingSearcher{blockingSearcher: blockingSearcher{started: make(chan struct{}, 1), release: make(chan struct{})}}
	srv := httptest.NewServer(New(s, Config{Dim: 1, MaxInFlight: 1}))
	defer srv.Close()
	postTo := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := postTo("/insert", `{"vector":[1]}`); code != http.StatusOK {
		t.Fatalf("insert = %d", code)
	}
	if code := postTo("/delete", `{"id":7}`); code != http.StatusNotFound {
		t.Fatalf("delete of an unknown id = %d, want 404", code)
	}

	done := make(chan int, 1)
	go func() { done <- postTo("/search", `{"vector":[1],"k":1}`) }()
	<-s.started // the search holds the only slot
	for _, c := range []struct{ path, body string }{{"/insert", `{"vector":[1]}`}, {"/delete", `{"id":0}`}} {
		if code := postTo(c.path, c.body); code != http.StatusServiceUnavailable {
			t.Fatalf("%s against a full gate = %d, want 503", c.path, code)
		}
	}
	close(s.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked search finished with %d", code)
	}

	m := getJSON(t, srv, "/metrics")
	ing := m["ingest"].(map[string]any)
	if m["shed"].(float64) != 2 || ing["write_shed"].(float64) != 2 {
		t.Fatalf("shed/write_shed = %v/%v, want 2/2", m["shed"], ing["write_shed"])
	}
	if ing["insert_requests"].(float64) != 1 || ing["delete_requests"].(float64) != 0 || ing["write_errors"].(float64) != 0 {
		t.Fatalf("ingest request counters = %v", ing)
	}
	if m["in_flight"].(float64) != 0 {
		t.Fatalf("in_flight = %v after the drain", m["in_flight"])
	}
}

// failedLogSearcher is a live deployment whose write-ahead log has failed
// stop: every write is refused, searches still answer.
type failedLogSearcher struct{ fakeSearcher }

func (s *failedLogSearcher) Insert(ctx context.Context, vec []float32) (int, error) {
	return 0, fmt.Errorf("%w: sync wal record: input/output error", ErrWALFailed)
}

func (s *failedLogSearcher) Delete(ctx context.Context, id int) error {
	return fmt.Errorf("%w: sync wal record: input/output error", ErrWALFailed)
}

// TestWALFailureAnswers503: a write the failed log refuses answers 503
// wal_failed and counts as a write error, and /search keeps answering 200.
func TestWALFailureAnswers503(t *testing.T) {
	srv := httptest.NewServer(New(&failedLogSearcher{}, Config{Dim: 3}))
	defer srv.Close()
	for _, c := range []struct{ path, body string }{
		{"/insert", `{"vector":[1,2,3]}`},
		{"/delete", `{"id":0}`},
	} {
		resp, err := http.Post(srv.URL+c.path, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		var out errorResponse
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.HasPrefix(out.Error, "wal_failed:") {
			t.Fatalf("%s after the log failed = %d %q, want 503 wal_failed", c.path, resp.StatusCode, out.Error)
		}
	}
	if resp, _ := post(t, srv, `{"vector":[1,2,3],"k":2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("search after the log failed = %d, want 200", resp.StatusCode)
	}
	ing := getJSON(t, srv, "/metrics")["ingest"].(map[string]any)
	if ing["write_errors"].(float64) != 2 {
		t.Fatalf("write_errors = %v, want 2", ing["write_errors"])
	}
}
