package exploitbit

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func serveFixture(t *testing.T) (http.Handler, *System, [][]float32) {
	t.Helper()
	sys, qtest := smallSystem(t, C2LSH)
	eng, err := sys.Engine(HCO, 64<<10, 6)
	if err != nil {
		t.Fatal(err)
	}
	return Serve(eng, ServeOptions{}), sys, qtest
}

func postSearch(t *testing.T, srv *httptest.Server, body any) (*http.Response, map[string]any) {
	t.Helper()
	return postJSON(t, srv, "/search", body)
}

// postJSON posts body to path and decodes the JSON object that comes back,
// whatever the status.
func postJSON(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServeSearch(t *testing.T) {
	h, sys, qtest := serveFixture(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, out := postSearch(t, srv, map[string]any{"vector": qtest[0], "k": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	ids, ok := out["ids"].([]any)
	if !ok || len(ids) != 5 {
		t.Fatalf("ids = %v", out["ids"])
	}
	stats, ok := out["stats"].(map[string]any)
	if !ok || stats["candidates"].(float64) < 5 {
		t.Fatalf("stats = %v", out["stats"])
	}
	_ = sys

	// Aggregate stats endpoint.
	sresp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var agg map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if agg["queries"].(float64) != 1 {
		t.Fatalf("stats = %v", agg)
	}

	// Health.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hresp.StatusCode)
	}
}

func TestServeValidation(t *testing.T) {
	h, _, qtest := serveFixture(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Wrong dimensionality.
	resp, out := postSearch(t, srv, map[string]any{"vector": []float32{1, 2}, "k": 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim mismatch accepted: %d %v", resp.StatusCode, out)
	}
	// Bad k.
	resp, _ = postSearch(t, srv, map[string]any{"vector": qtest[0], "k": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=0 accepted: %d", resp.StatusCode)
	}
	// Malformed JSON.
	mresp, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON accepted: %d", mresp.StatusCode)
	}
	// Wrong method.
	gresp, err := http.Get(srv.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed && gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /search = %d", gresp.StatusCode)
	}
}

func TestServeConcurrentRequests(t *testing.T) {
	h, _, qtest := serveFixture(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				resp, out := postSearch(t, srv, map[string]any{"vector": qtest[(g+i)%len(qtest)], "k": 3})
				if resp.StatusCode != http.StatusOK {
					errs <- out["error"].(string)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
