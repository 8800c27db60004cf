package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"exploitbit/internal/disk"
)

// faultSearcher drives the handler's fault-tolerance paths: a transient or
// permanent typed disk error for poisoned first coordinates, a degraded
// answer for another, clean results otherwise.
type faultSearcher struct{}

func (s *faultSearcher) Search(ctx context.Context, q []float32, k int) ([]int, Stats, error) {
	switch {
	case len(q) > 0 && q[0] == -1:
		return nil, Stats{}, fmt.Errorf("fetching point: %w",
			&disk.PageError{Page: 7, Op: "read", Transient: true, Err: disk.ErrInjected})
	case len(q) > 0 && q[0] == -2:
		return nil, Stats{}, fmt.Errorf("fetching point: %w",
			&disk.PageError{Page: 7, Op: "read", Transient: false, Err: disk.ErrInjected})
	case len(q) > 0 && q[0] == -3:
		ids := make([]int, k)
		for i := range ids {
			ids[i] = i
		}
		return ids, Stats{Candidates: k, Degraded: true, FailedShards: []int{1}}, nil
	}
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i
	}
	return ids, Stats{Candidates: k}, nil
}

func (s *faultSearcher) SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []Stats, error) {
	ids := make([][]int, len(qs))
	sts := make([]Stats, len(qs))
	for j, q := range qs {
		var err error
		ids[j], sts[j], err = s.Search(ctx, q, k)
		if err != nil {
			return nil, nil, err
		}
	}
	return ids, sts, nil
}

func newFaultServer(t *testing.T) (*httptest.Server, *Handler) {
	t.Helper()
	h := New(&faultSearcher{}, Config{Dim: 3, MaxK: 50})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h
}

func TestTransientIOErrorIs503WithRetryAfter(t *testing.T) {
	srv, h := newFaultServer(t)
	resp, out := post(t, srv, `{"vector":[-1,0,0],"k":3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 on a transient fault must carry Retry-After")
	}
	if h.transient.Load() != 1 {
		t.Fatalf("transient counter = %d, want 1", h.transient.Load())
	}

	m := getJSON(t, srv, "/metrics")
	if m["transient_failures"].(float64) != 1 {
		t.Fatalf("metrics transient_failures = %v", m["transient_failures"])
	}
}

func TestPermanentIOErrorIs500(t *testing.T) {
	srv, _ := newFaultServer(t)
	resp, out := post(t, srv, `{"vector":[-2,0,0],"k":3}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Fatal("permanent failures must not advertise Retry-After")
	}
}

func TestDegradedResponseFlagged(t *testing.T) {
	srv, _ := newFaultServer(t)

	// A clean search carries no degraded marker at all.
	resp, out := post(t, srv, `{"vector":[1,0,0],"k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if _, ok := out["degraded"]; ok {
		t.Fatalf("clean response carries degraded flag: %v", out)
	}

	resp, out = post(t, srv, `{"vector":[-3,0,0],"k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded search must still be 200: %d %v", resp.StatusCode, out)
	}
	if out["degraded"] != true {
		t.Fatalf("degraded flag missing: %v", out)
	}
	st := out["stats"].(map[string]any)
	if st["degraded"] != true {
		t.Fatalf("stats.degraded missing: %v", st)
	}
	fs := st["failed_shards"].([]any)
	if len(fs) != 1 || fs[0].(float64) != 1 {
		t.Fatalf("stats.failed_shards = %v, want [1]", fs)
	}

	m := getJSON(t, srv, "/metrics")
	if m["degraded_searches"].(float64) != 1 {
		t.Fatalf("metrics degraded_searches = %v", m["degraded_searches"])
	}
}

func TestBatchDegradedAndTransient(t *testing.T) {
	srv, _ := newFaultServer(t)

	// One degraded member flags only that member, and counts once.
	resp, out := postBatch(t, srv, `{"vectors":[[1,0,0],[-3,0,0]],"k":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if _, ok := results[0].(map[string]any)["degraded"]; ok {
		t.Fatal("clean batch member flagged degraded")
	}
	if results[1].(map[string]any)["degraded"] != true {
		t.Fatal("degraded batch member not flagged")
	}
	m := getJSON(t, srv, "/metrics")
	if m["degraded_searches"].(float64) != 1 {
		t.Fatalf("metrics degraded_searches = %v", m["degraded_searches"])
	}

	// A transient fault fails the whole batch with 503 + Retry-After.
	resp, out = postBatch(t, srv, `{"vectors":[[1,0,0],[-1,0,0]],"k":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("batch 503 on a transient fault must carry Retry-After")
	}
}

func TestMetricsIOBlock(t *testing.T) {
	// No Reporter: no io object.
	srv, _ := newFaultServer(t)
	m := getJSON(t, srv, "/metrics")
	if _, ok := m["io"]; ok {
		t.Fatalf("io block present without a source: %v", m["io"])
	}

	srv, _ = newReportingServer(t, Report{IO: &IOStats{Retries: 5, TransientErrors: 6, PermanentErrors: 1}})
	m = getJSON(t, srv, "/metrics")
	io := m["io"].(map[string]any)
	if io["io_retries"].(float64) != 5 ||
		io["io_errors_transient"].(float64) != 6 ||
		io["io_errors_permanent"].(float64) != 1 {
		t.Fatalf("io block = %v", io)
	}
}

func TestStatsShardQuarantineVisible(t *testing.T) {
	srv, _ := newReportingServer(t, Report{Shards: []ShardStat{
		{Shard: 0, Points: 10},
		{Shard: 1, Points: 10, Quarantined: true, FetchFailures: 3},
	}})

	out := getJSON(t, srv, "/stats")
	shards := out["shards"].([]any)
	s0 := shards[0].(map[string]any)
	if _, ok := s0["quarantined"]; ok {
		t.Fatalf("healthy shard carries quarantined flag: %v", s0)
	}
	s1 := shards[1].(map[string]any)
	if s1["quarantined"] != true || s1["fetch_failures"].(float64) != 3 {
		t.Fatalf("quarantined shard block = %v", s1)
	}
}
