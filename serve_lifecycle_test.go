package exploitbit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exploitbit/internal/core"
)

// TestServeMaintainedLifecycleRace is the serving-path stress test of the
// request-lifecycle work: a real http.Server over ServeMaintained, a rebuild
// parked in flight on the MaintainOptions.RebuildGate seam, goroutines
// hammering /search, /stats and /metrics, and a graceful Shutdown racing all
// of it. Run under -race it proves the admission gate, the lock-free
// metrics, the RCU engine swap and the drain sequence share no unguarded
// state; functionally it proves shutdown drains cleanly, the gated rebuild
// still lands, and no request ever sees a 5xx other than admission's 503 —
// for flat maintained serving (one unit) and a real partition alike.
func TestServeMaintainedLifecycleRace(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { serveMaintainedLifecycleRace(t, shards) })
	}
}

func serveMaintainedLifecycleRace(t *testing.T, shards int) {
	_, sys, qtest := shardedPair(t, shards, RoundRobin)
	gate := make(chan struct{})
	m, err := sys.Maintained(core.Config{
		Method: HCO, CacheBytes: 64 << 10, Tau: 6, SmoothEps: 0.01,
	}, MaintainOptions{WindowSize: 16, RebuildGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	handler := ServeMaintained(m, ServeOptions{MaxInFlight: 4})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler, ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Seed the drift window, then park a rebuild on the gate so the whole
	// hammer phase runs with a rebuild in flight.
	client := &http.Client{Timeout: 5 * time.Second}
	searchOnce := func() (int, error) {
		body, _ := json.Marshal(map[string]any{"vector": qtest[rand.Intn(len(qtest))], "k": 3})
		resp, err := client.Post(base+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	for i := 0; i < 20; i++ {
		if code, err := searchOnce(); err != nil || code != http.StatusOK {
			t.Fatalf("seeding search %d: code=%d err=%v", i, code, err)
		}
	}
	if !m.RebuildShardAsync(shards - 1) {
		t.Fatal("RebuildShardAsync refused")
	}
	if !m.Stats().RebuildInFlight {
		t.Fatal("rebuild not in flight")
	}

	// Hammer. After shutdown starts, transport errors and refused
	// connections are expected; 5xx other than 503 never is.
	var (
		wg           sync.WaitGroup
		shuttingDown atomic.Bool
		ok2xx        atomic.Int64
		failures     = make(chan string, 64)
	)
	endpoints := []string{"/stats", "/metrics", "/healthz"}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				var code int
				var err error
				if g%2 == 0 {
					code, err = searchOnce()
				} else {
					var resp *http.Response
					resp, err = client.Get(base + endpoints[i%len(endpoints)])
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						code = resp.StatusCode
						resp.Body.Close()
					}
				}
				if err != nil {
					if !shuttingDown.Load() {
						select {
						case failures <- fmt.Sprintf("goroutine %d: %v", g, err):
						default:
						}
					}
					continue
				}
				switch {
				case code == http.StatusOK:
					ok2xx.Add(1)
				case code == http.StatusServiceUnavailable: // admission shed: fine
				default:
					select {
					case failures <- fmt.Sprintf("goroutine %d: status %d", g, code):
					default:
					}
				}
			}
		}(g)
	}

	// Let the hammer run, then drain while requests are still in flight.
	time.Sleep(30 * time.Millisecond)
	shuttingDown.Store(true)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown did not drain: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if ok2xx.Load() == 0 {
		t.Fatal("no request succeeded before shutdown")
	}

	// Release the parked rebuild and stop the maintainer: Close must wait
	// for it, and the swap still lands.
	close(gate)
	m.Close()
	if st := m.Stats(); st.Rebuilds != 1 || st.RebuildInFlight {
		t.Fatalf("maintainer stats after drain: %+v", st)
	}
}

// TestServeMetricsEndToEnd sanity-checks the /metrics schema over a real
// engine: latency histograms populated per stage, admission figures
// present.
func TestServeMetricsEndToEnd(t *testing.T) {
	h, _, qtest := serveFixture(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < 5; i++ {
		resp, out := postSearch(t, srv, map[string]any{"vector": qtest[i%len(qtest)], "k": 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: %d %v", i, resp.StatusCode, out)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr struct {
		Queries        int64 `json:"queries"`
		AdmissionLimit int   `json:"admission_limit"`
		Shed           int64 `json:"shed"`
		Latency        struct {
			Total    struct{ Count int64 } `json:"total"`
			Reduce   struct{ Count int64 } `json:"phase2_reduce"`
			RefineIO struct{ Count int64 } `json:"refine_io"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if mr.Queries != 5 || mr.Latency.Total.Count != 5 || mr.Latency.Reduce.Count != 5 || mr.Latency.RefineIO.Count != 5 {
		t.Fatalf("metrics = %+v", mr)
	}
	if mr.AdmissionLimit < 1 {
		t.Fatalf("admission limit missing: %+v", mr)
	}
}
