package exploitbit

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"exploitbit/internal/core"
)

// The wire-shape net: which telemetry blocks GET /stats and GET /metrics carry
// in which serving mode, and which routes exist. DESIGN §10 states the table;
// this test pins it, so a refactor of the handler or of the facade's wiring
// cannot silently drop (or grow) a block.

var (
	statsBase   = "avg_candidates avg_fetched hit_ratio queries refine_ratio"
	metricsBase = "admission_limit batch_shed batches canceled degraded_searches encode_errors " +
		"in_flight io latency queries shed transient_failures"
	ioKeys        = "io_errors_permanent io_errors_transient io_retries"
	shardKeys     = "cache_capacity cache_hits cached_items candidates fetched hit_ratio page_reads points queries refine_ratio remaining rho_hit_ewma rho_refine_ewma shard"
	maintainKeys  = "rebuild_errors rebuild_in_flight rebuilds retunes"
	costModelKeys = "best_crefine improvement observed_rho_hit observed_rho_refine pending_windows predicted_crefine " +
		"predicted_rho_hit predicted_rho_refine recommended_tau retunes tau windows"
	ingestKeys = "compact_in_flight compaction_errors compactions delta_points deletes inserts points " +
		"replay_truncated_bytes replayed_records shard_writes tombstones wal_bytes wal_segments"
	ingestMetricsKeys = "delete_requests insert_requests latency_delete latency_insert write_errors write_shed"
)

// wantKeys asserts obj's key set is exactly the space-separated sets in want,
// ignoring the listed omitempty keys (present only once they are non-zero).
func wantKeys(t *testing.T, what string, obj any, optional string, want ...string) {
	t.Helper()
	m, ok := obj.(map[string]any)
	if !ok {
		t.Fatalf("%s: not an object: %v", what, obj)
	}
	skip := map[string]bool{}
	for _, k := range strings.Fields(optional) {
		skip[k] = true
	}
	var got []string
	for k := range m {
		if !skip[k] {
			got = append(got, k)
		}
	}
	exp := strings.Fields(strings.Join(want, " "))
	sort.Strings(got)
	sort.Strings(exp)
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("%s keys:\n got  %v\n want %v", what, got, exp)
	}
}

func getObject(t *testing.T, srv *httptest.Server, path string) map[string]any {
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

func postStatus(t *testing.T, srv *httptest.Server, path, body string) int {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestServeWireShape(t *testing.T) {
	type mode struct {
		name     string
		shards   int // shards[] entries; 0 = no shards key at all
		maintain bool
		adaptive bool
		live     bool
		open     func(t *testing.T) http.Handler
	}
	cfg := core.Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6, SmoothEps: 0.01}
	maintained := func(n int, adaptive bool) func(t *testing.T) http.Handler {
		return func(t *testing.T) http.Handler {
			_, sys, _ := shardedPair(t, n, RoundRobin)
			m, err := sys.Maintained(cfg, MaintainOptions{AdaptiveTau: adaptive})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			return ServeMaintained(m, ServeOptions{})
		}
	}
	modes := []mode{
		{name: "Serve", open: func(t *testing.T) http.Handler {
			h, _, _ := serveFixture(t)
			return h
		}},
		{name: "ServeSharded", shards: 3, open: func(t *testing.T) http.Handler {
			_, sys, _ := shardedPair(t, 3, RoundRobin)
			se, err := sys.ShardedEngineWith(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return ServeSharded(se, ServeOptions{})
		}},
		{name: "ServeMaintained/N=1", shards: 1, maintain: true, open: maintained(1, false)},
		{name: "ServeMaintained/N=3", shards: 3, maintain: true, open: maintained(3, false)},
		{name: "ServeMaintained/N=1/adaptive", shards: 1, maintain: true, adaptive: true, open: maintained(1, true)},
		{name: "ServeMaintained/N=3/adaptive", shards: 3, maintain: true, adaptive: true, open: maintained(3, true)},
		{name: "ServeLive", shards: 1, maintain: true, live: true, open: func(t *testing.T) http.Handler {
			ls, _, _ := liveFixture(t, t.TempDir(), LiveOptions{Fsync: FsyncNone})
			t.Cleanup(func() { ls.Close() })
			return ServeLive(ls, ServeOptions{})
		}},
	}
	for _, md := range modes {
		t.Run(md.name, func(t *testing.T) {
			srv := httptest.NewServer(md.open(t))
			defer srv.Close()

			stats := []string{statsBase}
			metrics := []string{metricsBase}
			shard := []string{shardKeys}
			if md.shards > 0 {
				stats, metrics = append(stats, "shards"), append(metrics, "shards")
			}
			if md.maintain {
				stats, shard = append(stats, "maintain"), append(shard, "maintain")
			}
			if md.adaptive {
				metrics, shard = append(metrics, "costmodel"), append(shard, "costmodel")
			}
			if md.live {
				stats, metrics = append(stats, "ingest"), append(metrics, "ingest")
			}

			for _, ep := range []struct {
				path string
				want []string
			}{{"/stats", stats}, {"/metrics", metrics}} {
				out := getObject(t, srv, ep.path)
				wantKeys(t, ep.path, out, "", ep.want...)
				if md.shards > 0 {
					rows := out["shards"].([]any)
					if len(rows) != md.shards {
						t.Fatalf("%s: %d shards[] rows, want %d", ep.path, len(rows), md.shards)
					}
					for i, row := range rows {
						wantKeys(t, ep.path+" shards[]", row, "quarantined fetch_failures", shard...)
						r := row.(map[string]any)
						if int(r["shard"].(float64)) != i {
							t.Fatalf("%s: shards[%d].shard = %v", ep.path, i, r["shard"])
						}
						if md.maintain {
							wantKeys(t, ep.path+" shards[].maintain", r["maintain"],
								"last_rebuild_wall_ns last_rebuild_at tau", maintainKeys)
						}
						if md.adaptive {
							wantKeys(t, ep.path+" shards[].costmodel", r["costmodel"], "", costModelKeys)
						}
					}
				}
			}

			st, mt := getObject(t, srv, "/stats"), getObject(t, srv, "/metrics")
			wantKeys(t, "/metrics io", mt["io"], "", ioKeys)
			if md.maintain {
				wantKeys(t, "/stats maintain", st["maintain"], "last_rebuild_wall_ns last_rebuild_at tau", maintainKeys)
			}
			if md.adaptive {
				wantKeys(t, "/metrics costmodel", mt["costmodel"], "", costModelKeys)
			}
			if md.live {
				wantKeys(t, "/stats ingest", st["ingest"], "", ingestKeys)
				wantKeys(t, "/metrics ingest", mt["ingest"], "", ingestKeys, ingestMetricsKeys)
				if sw := st["ingest"].(map[string]any)["shard_writes"].([]any); len(sw) != md.shards {
					t.Fatalf("shard_writes has %d rows, want %d", len(sw), md.shards)
				}
			}

			// Routes: the write endpoints exist only on a live deployment; every
			// facade searcher has the batch capability.
			for _, path := range []string{"/insert", "/delete"} {
				code := postStatus(t, srv, path, `{}`)
				if md.live && code != http.StatusBadRequest {
					t.Fatalf("POST %s on a live deployment = %d, want 400 for an empty body", path, code)
				}
				if !md.live && code != http.StatusNotFound {
					t.Fatalf("POST %s without a write path = %d, want 404", path, code)
				}
			}
			if code := postStatus(t, srv, "/search/batch", `{"vectors":[],"k":1}`); code != http.StatusBadRequest {
				t.Fatalf("POST /search/batch = %d, want 400 for an empty batch", code)
			}
			if code := postStatus(t, srv, "/healthz", ``); code == http.StatusOK {
				t.Fatal("POST /healthz answered 200; only GET is routed")
			}
		})
	}
}

// TestServeAggregatesFoldTheirRows: every response takes one snapshot, and
// its aggregate blocks are the fold of the shards[] rows printed beside them —
// under rebuilds landing and drift windows closing while the GETs run.
func TestServeAggregatesFoldTheirRows(t *testing.T) {
	_, sys, qtest := shardedPair(t, 3, RoundRobin)
	m, err := sys.Maintained(core.Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6, SmoothEps: 0.01},
		MaintainOptions{WindowSize: 8, AdaptiveTau: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(ServeMaintained(m, ServeOptions{}))
	defer srv.Close()

	for _, q := range qtest { // every unit needs a drift window to rebuild from
		if _, _, err := m.Search(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	churn := make(chan error, 1)
	go func() { // rebuilds land and windows close while the GET loop below runs
		var err error
		for i := 0; i < 40 && err == nil; i++ {
			if err = m.ForceShardRebuild(i % 3); err == nil {
				_, _, err = m.Search(qtest[i%len(qtest)], 3)
			}
		}
		churn <- err
	}()

	sum := func(rows []any, block, field string) (total float64) {
		for _, row := range rows {
			total += row.(map[string]any)[block].(map[string]any)[field].(float64)
		}
		return total
	}
	for done := false; !done; {
		select {
		case err := <-churn:
			if err != nil {
				t.Fatal(err)
			}
			done = true // one more pass over the settled state
		default:
		}
		st := getObject(t, srv, "/stats")
		if agg, rows := st["maintain"].(map[string]any)["rebuilds"].(float64), sum(st["shards"].([]any), "maintain", "rebuilds"); agg != rows {
			t.Fatalf("/stats maintain.rebuilds = %v, its shards[] rows sum to %v", agg, rows)
		}
		mt := getObject(t, srv, "/metrics")
		if agg, rows := mt["costmodel"].(map[string]any)["windows"].(float64), sum(mt["shards"].([]any), "costmodel", "windows"); agg != rows {
			t.Fatalf("/metrics costmodel.windows = %v, its shards[] rows sum to %v", agg, rows)
		}
	}
	if st := m.Stats(); st.Rebuilds < 40 {
		t.Fatalf("%d rebuilds landed, want the 40 forced ones", st.Rebuilds)
	}
}
