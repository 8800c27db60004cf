package exploitbit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"exploitbit/internal/core"
	"exploitbit/internal/server"
)

func liveFixture(t *testing.T, walDir string, lopt LiveOptions) (*LiveSystem, *Dataset, [][]float32) {
	t.Helper()
	ds := Generate(DatasetConfig{Name: "live", N: 900, Dim: 8, Clusters: 5, Std: 0.05, Ndom: 256, Seed: 41})
	log := GenLog(ds, LogConfig{PoolSize: 50, Length: 250, ZipfS: 1.3, Perturb: 0.005, Seed: 42})
	wl, qtest := log.Split(10)
	lopt.WalDir = walDir
	ls, err := OpenLive(ds, wl,
		Options{Tio: 0},
		core.Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6},
		MaintainOptions{WindowSize: 1 << 20},
		lopt)
	if err != nil {
		t.Fatal(err)
	}
	return ls, ds, qtest
}

// copyDir clones a WAL directory — the crash image a restart recovers from.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func searchAll(t *testing.T, ls *LiveSystem, qs [][]float32, k int) [][]int {
	t.Helper()
	out := make([][]int, len(qs))
	for i, q := range qs {
		ids, _, err := ls.Search(context.Background(), q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ids
	}
	return out
}

func TestLiveInsertVisibleDeleteMasked(t *testing.T) {
	ls, ds, _ := liveFixture(t, t.TempDir(), LiveOptions{Fsync: FsyncNone, CompactThreshold: 1 << 20})
	defer ls.Close()
	ctx := context.Background()

	// Insert the query vector itself: distance zero, so it must appear in
	// any top-k (result order is refinement order, not rank).
	q := append([]float32(nil), ds.Point(7)...)
	q[0] += 0.001
	id, err := ls.Insert(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if id != ds.Len() {
		t.Fatalf("first insert got id %d, want %d", id, ds.Len())
	}
	ids, _, err := ls.Search(ctx, q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !containsID(ids, id) {
		t.Fatalf("inserted point %d missing from %v", id, ids)
	}

	if err := ls.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	ids, _, err = ls.Search(ctx, q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range ids {
		if got == id {
			t.Fatalf("deleted id %d still in results %v", id, ids)
		}
	}
	// Idempotent delete; unknown id errors.
	if err := ls.Delete(ctx, id); err != nil {
		t.Fatalf("re-delete: %v", err)
	}
	if err := ls.Delete(ctx, 1_000_000); err == nil {
		t.Fatal("unknown id accepted")
	}
	st := ls.Stats()
	if st.Inserts != 1 || st.Deletes != 1 || st.DeltaPoints != 1 || st.Tombstones != 1 {
		t.Fatalf("stats %+v", st)
	}
	if got, want := ls.Stats().Points, ds.Len(); got != want {
		t.Fatalf("NumPoints %d, want %d", got, want)
	}
}

// TestLiveKillAndRestart is the crash-recovery integration test: write with
// FsyncAlways, clone the WAL directory without closing (the crash image), and
// recover it twice — both recoveries must agree bit-for-bit with each other
// and with the durable write history.
func TestLiveKillAndRestart(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ls, ds, qtest := liveFixture(t, walDir, LiveOptions{Fsync: FsyncAlways, CompactThreshold: 1 << 20})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))

	var insertedIDs []int
	var deletedIDs []int
	for i := 0; i < 40; i++ {
		v := append([]float32(nil), ds.Point(rng.Intn(ds.Len()))...)
		v[i%ds.Dim] += float32(rng.NormFloat64()) * 0.01
		id, err := ls.Insert(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		insertedIDs = append(insertedIDs, id)
		if i%5 == 4 {
			victim := insertedIDs[rng.Intn(len(insertedIDs))]
			if err := ls.Delete(ctx, victim); err != nil {
				t.Fatal(err)
			}
			deletedIDs = append(deletedIDs, victim)
		}
	}

	// Crash: clone the durable state while the system is still running.
	crashA := copyDir(t, walDir)
	crashB := copyDir(t, walDir)
	wantStats := ls.Stats()
	ls.Close()

	lsA, _, _ := liveFixture(t, crashA, LiveOptions{Fsync: FsyncAlways, CompactThreshold: 1 << 20})
	defer lsA.Close()
	lsB, _, _ := liveFixture(t, crashB, LiveOptions{Fsync: FsyncAlways, CompactThreshold: 1 << 20})
	defer lsB.Close()

	rec := lsA.Recovery
	if rec.Records != int(wantStats.Inserts+wantStats.Deletes) {
		t.Fatalf("replayed %d records, want %d", rec.Records, wantStats.Inserts+wantStats.Deletes)
	}
	if len(rec.Points) != 40 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d points (%d torn bytes), want 40 clean", len(rec.Points), rec.TruncatedBytes)
	}
	for _, id := range deletedIDs {
		if _, ok := rec.Tombs[int64(id)]; !ok {
			t.Fatalf("tombstone %d lost in recovery", id)
		}
	}
	if got, want := lsA.Stats().Points, ds.Len()+40-len(rec.Tombs); got != want {
		t.Fatalf("NumPoints %d after recovery, want %d", got, want)
	}

	// Bit-for-bit: two independent recoveries of the same crash image serve
	// identical results.
	gotA := searchAll(t, lsA, qtest, 10)
	gotB := searchAll(t, lsB, qtest, 10)
	if !reflect.DeepEqual(gotA, gotB) {
		t.Fatalf("recoveries diverged:\n%v\n%v", gotA, gotB)
	}
	// Deleted ids never resurface.
	dead := map[int]bool{}
	for _, id := range deletedIDs {
		dead[id] = true
	}
	for _, ids := range gotA {
		for _, id := range ids {
			if dead[id] {
				t.Fatalf("deleted id %d served after recovery", id)
			}
		}
	}
}

// TestLiveCompactionAndRestart drives the full fold loop: enough inserts to
// trigger background compaction, then a restart over the compacted directory
// (checkpoint + retired segments) must reproduce the same live state.
func TestLiveCompactionAndRestart(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ls, ds, qtest := liveFixture(t, walDir, LiveOptions{Fsync: FsyncNone, CompactThreshold: 24})
	ctx := context.Background()

	n0 := ds.Len()
	for i := 0; i < 60; i++ {
		v := append([]float32(nil), ds.Point(i)...)
		v[0] += 0.002
		if _, err := ls.Insert(ctx, v); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := ls.Delete(ctx, n0+i-3); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for ls.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction: %+v", ls.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for ls.Stats().CompactInFlight {
		time.Sleep(time.Millisecond)
	}
	st := ls.Stats()
	if st.CompactionErrors != 0 {
		t.Fatalf("compaction errors: %+v", st)
	}
	// Searches after the fold still mask tombstones and serve all points.
	ids, _, err := ls.Search(ctx, ds.Point(6), 5, nil)
	if err != nil || len(ids) != 5 {
		t.Fatalf("post-compaction search: %v %v", ids, err)
	}
	wantPoints := ls.Stats().Points

	crash := copyDir(t, walDir)
	ls.Close()

	re, _, _ := liveFixture(t, crash, LiveOptions{Fsync: FsyncNone, CompactThreshold: 1 << 20})
	defer re.Close()
	if re.Recovery.CheckpointPoints == 0 {
		t.Fatal("restart did not load the checkpoint")
	}
	if got := re.Stats().Points; got != wantPoints {
		t.Fatalf("NumPoints %d after restart, want %d", got, wantPoints)
	}
	if len(re.Recovery.Points) != 60 {
		t.Fatalf("restart folded %d points, want 60", len(re.Recovery.Points))
	}
	if got := searchAll(t, re, qtest, 10); len(got) != len(qtest) {
		t.Fatal("restart searches failed")
	}
	for _, idlist := range searchAll(t, re, qtest, 10) {
		for _, id := range idlist {
			if _, dead := re.Recovery.Tombs[int64(id)]; dead {
				t.Fatalf("tombstoned id %d served after compacted restart", id)
			}
		}
	}
}

// TestLiveConcurrentHammer races inserts, deletes, searches and background
// compactions; run under -race it is the non-blocking-compaction check.
func TestLiveConcurrentHammer(t *testing.T) {
	ls, ds, qtest := liveFixture(t, t.TempDir(), LiveOptions{Fsync: FsyncNone, CompactThreshold: 32})
	defer ls.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []int
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := append([]float32(nil), ds.Point(rng.Intn(ds.Len()))...)
				v[0] += float32(rng.NormFloat64()) * 0.01
				id, err := ls.Insert(ctx, v)
				if err != nil {
					errs <- err
					return
				}
				mine = append(mine, id)
				if i%7 == 6 {
					if err := ls.Delete(ctx, mine[rng.Intn(len(mine))]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(int64(100 + g))
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := qtest[rng.Intn(len(qtest))]
				if _, _, err := ls.Search(ctx, q, 10, nil); err != nil {
					errs <- err
					return
				}
			}
		}(int64(200 + g))
	}

	deadline := time.Now().Add(4 * time.Second)
	for ls.Stats().Compactions < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := ls.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction under load: %+v", st)
	}
	if st.CompactionErrors != 0 {
		t.Fatalf("compaction errors under load: %+v", st)
	}
}

// TestServeLiveEndpoints exercises the HTTP write path: insert, search sees
// the point, delete, 404 on unknown id, 400 on malformed input, and the
// ingest telemetry block on /stats and /metrics.
func TestServeLiveEndpoints(t *testing.T) {
	ls, ds, _ := liveFixture(t, t.TempDir(), LiveOptions{Fsync: FsyncNone, CompactThreshold: 1 << 20})
	defer ls.Close()
	srv := httptest.NewServer(ServeLive(ls, ServeOptions{}))
	defer srv.Close()

	post := func(path string, body any) (*http.Response, map[string]any) {
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
		json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}

	vec := append([]float32(nil), ds.Point(3)...)
	vec[0] += 0.001
	resp, out := post("/insert", map[string]any{"vector": vec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %v", resp.StatusCode, out)
	}
	id := int(out["id"].(float64))
	if id != ds.Len() {
		t.Fatalf("insert id %d, want %d", id, ds.Len())
	}

	resp, out = post("/search", map[string]any{"vector": vec, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %v", resp.StatusCode, out)
	}
	found := false
	for _, v := range out["ids"].([]any) {
		if int(v.(float64)) == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted point %d missing over HTTP: %v", id, out["ids"])
	}

	resp, out = post("/delete", map[string]any{"id": id})
	if resp.StatusCode != http.StatusOK || int(out["deleted"].(float64)) != id {
		t.Fatalf("delete status %d: %v", resp.StatusCode, out)
	}
	resp, _ = post("/delete", map[string]any{"id": 999999})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-id delete status %d, want 404", resp.StatusCode)
	}
	resp, _ = post("/delete", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-id delete status %d, want 400", resp.StatusCode)
	}
	for _, bad := range []any{
		map[string]any{"vector": []float32{1, 2}},                                      // wrong dim
		map[string]any{"vector": []any{"a", "b", "c", "d", "e", "f", "g", "h"}},        // not numbers
		map[string]any{"vector": []any{1, 2, 3, 4, 5, 6, 7, json.RawMessage("1e999")}}, // non-finite
	} {
		resp, _ = post("/insert", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad insert %v: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Telemetry: ingest block present with the request history.
	for _, path := range []string{"/stats", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var payload map[string]any
		json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		ing, ok := payload["ingest"].(map[string]any)
		if !ok {
			t.Fatalf("%s has no ingest block: %v", path, payload)
		}
		if ing["inserts"].(float64) != 1 || ing["deletes"].(float64) != 1 {
			t.Fatalf("%s ingest block %v", path, ing)
		}
	}
}

// TestLiveBatchCoalescesUnderOverlay pins live × batch over HTTP: with a
// non-empty overlay (one delta point, one tombstone) POST /search/batch is
// still the coalesced batch — every member answers exactly as POST /search
// does, the inserted point is in and the deleted one out, and four copies of
// one query read strictly fewer pages together than four single searches.
// The same must hold after a restart, when the overlay is the recovered
// tombstone alone: tombstones never retire, so a deployment that has ever
// deleted serves every batch under an overlay.
func TestLiveBatchCoalescesUnderOverlay(t *testing.T) {
	walDir := t.TempDir()
	const k = 10
	var q []float32
	inserted, deleted := -1, -1

	check := func(stage string, ls *LiveSystem) {
		t.Helper()
		srv := httptest.NewServer(ServeLive(ls, ServeOptions{}))
		defer srv.Close()
		post := func(path string, body any) map[string]any {
			t.Helper()
			resp, out := postJSON(t, srv, path, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: POST %s = %d: %v", stage, path, resp.StatusCode, out)
			}
			return out
		}
		answer := func(res map[string]any) ([]int, int64) {
			var ids []int
			for _, v := range res["ids"].([]any) {
				ids = append(ids, int(v.(float64)))
			}
			return ids, int64(res["stats"].(map[string]any)["page_reads"].(float64))
		}

		if inserted < 0 {
			// Write through the handler: a near-duplicate of the query goes
			// in, one of the query's current neighbours goes out.
			before, _ := answer(post("/search", map[string]any{"vector": q, "k": k}))
			inserted = int(post("/insert", map[string]any{"vector": q})["id"].(float64))
			deleted = before[0]
			post("/delete", map[string]any{"id": deleted})
		}
		if mg := ls.Live.Overlay(); mg == nil || len(mg.Tombs) != 1 {
			t.Fatalf("%s: overlay %+v, want one tombstone", stage, mg)
		}

		var single []int
		var singleReads int64
		for i := 0; i < 4; i++ {
			ids, reads := answer(post("/search", map[string]any{"vector": q, "k": k}))
			if i == 0 {
				single = ids
			} else if !reflect.DeepEqual(ids, single) {
				t.Fatalf("%s: single search unstable: %v then %v", stage, single, ids)
			}
			singleReads += reads
		}
		if !containsID(single, inserted) || containsID(single, deleted) {
			t.Fatalf("%s: single ids %v, want inserted %d in and deleted %d out", stage, single, inserted, deleted)
		}
		if singleReads == 0 {
			t.Fatalf("%s: degenerate fixture: single searches read no pages", stage)
		}

		res := post("/search/batch", map[string]any{"vectors": [][]float32{q, q, q, q}, "k": k})
		var batchReads int64
		for j, m := range res["results"].([]any) {
			ids, reads := answer(m.(map[string]any))
			if !reflect.DeepEqual(ids, single) {
				t.Fatalf("%s: batch member %d ids %v, single search %v", stage, j, ids, single)
			}
			batchReads += reads
		}
		if batchReads >= singleReads {
			t.Fatalf("%s: batch of four read %d pages, four singles %d — want strictly fewer", stage, batchReads, singleReads)
		}
	}

	ls, ds, _ := liveFixture(t, walDir, LiveOptions{Fsync: FsyncNone, CompactThreshold: 1 << 20})
	q = append([]float32(nil), ds.Point(11)...)
	q[0] += 0.001
	check("delta + tombstone", ls)
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, _ := liveFixture(t, walDir, LiveOptions{Fsync: FsyncNone, CompactThreshold: 1 << 20})
	defer re.Close()
	check("recovered tombstone", re)
}

// TestLiveSharded covers the sharded write path: durable writes, merged
// searches, per-shard routing tallies, and compaction disabled.
func TestLiveSharded(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	ds := Generate(DatasetConfig{Name: "live-sh", N: 900, Dim: 8, Clusters: 5, Std: 0.05, Ndom: 256, Seed: 51})
	log := GenLog(ds, LogConfig{PoolSize: 40, Length: 200, ZipfS: 1.3, Perturb: 0.005, Seed: 52})
	wl, qtest := log.Split(8)
	ls, err := OpenLive(ds, wl,
		Options{Tio: 0, Shards: 3},
		core.Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6},
		MaintainOptions{WindowSize: 1 << 20},
		LiveOptions{WalDir: walDir, Fsync: FsyncNone, CompactThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	ctx := context.Background()

	q := append([]float32(nil), ds.Point(11)...)
	q[1] += 0.001
	id, err := ls.Insert(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := ls.Insert(ctx, ds.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Delete(ctx, 5); err != nil { // a base id, owned by some shard
		t.Fatal(err)
	}

	ids, _, err := ls.Search(ctx, q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !containsID(ids, id) {
		t.Fatalf("sharded merged search missed inserted point %d: %v", id, ids)
	}

	// Compaction never runs sharded, even far past the threshold: the write
	// path has no compactor, and the maintainer refuses the fold outright.
	if ls.Live.ForceCompact() {
		t.Fatal("sharded deployment accepted a forced compaction")
	}
	if ls.Maintainer.CompactRebuild(func() (*Dataset, core.CandidateFunc, error) {
		t.Error("sharded maintainer ran a compaction's prepare")
		return nil, nil, errors.New("unreachable")
	}, nil) {
		t.Fatal("CompactRebuild accepted a 3-unit maintainer")
	}
	time.Sleep(50 * time.Millisecond)
	st := ls.Stats()
	if st.Compactions != 0 || st.CompactInFlight {
		t.Fatalf("sharded deployment compacted: %+v", st)
	}
	if st.DeltaPoints != 13 {
		t.Fatalf("delta %d, want 13", st.DeltaPoints)
	}

	// Routing tallies cover every write.
	stats := served{s: ls.Maintainer, ls: ls}.Report().Ingest
	var ins, del int64
	for _, sw := range stats.ShardWrites {
		ins += sw.Inserts
		del += sw.Deletes
	}
	if ins != 13 || del != 1 {
		t.Fatalf("shard writes %v: %d inserts %d deletes, want 13 and 1", stats.ShardWrites, ins, del)
	}
	_ = qtest
}

// TestWALFailureTranslatesTo503: the served live system hands the ingest
// fail-stop sentinel to the handler as the server's, which answers 503
// wal_failed; other errors pass through untouched.
func TestWALFailureTranslatesTo503(t *testing.T) {
	failed := fmt.Errorf("%w: sync wal record: input/output error", ErrWALFailed)
	if err := walErr(failed); !errors.Is(err, server.ErrWALFailed) || !errors.Is(err, ErrWALFailed) {
		t.Fatalf("walErr(%v) = %v, want both sentinels", failed, err)
	}
	other := errors.New("ingest: closed")
	if err := walErr(other); err != other {
		t.Fatalf("walErr(%v) = %v, want it unchanged", other, err)
	}
	if walErr(nil) != nil {
		t.Fatal("walErr(nil) != nil")
	}
}
