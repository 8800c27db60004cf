package core

import (
	"context"
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"exploitbit/internal/disk"
	"exploitbit/internal/shard"
	"exploitbit/internal/vec"
)

// failAllReads installs a permanent fault on every page of a shard's file.
func failAllReads(pf *disk.PointFile) {
	pf.SetFaults(disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{
		{Kind: disk.FaultError, FirstPage: 0, LastPage: -1, Transient: false},
	}}))
}

// checkDegradedKNN asserts ids are exactly the k nearest of q among the
// candidates NOT owned by the failed shards.
func checkDegradedKNN(t *testing.T, w *world, owner []int32, failed map[int]bool, q []float32, ids []int, k int) {
	t.Helper()
	cids, _ := candFunc(w.ix)(nil, q, k)
	var surv []int
	for _, id := range cids {
		if !failed[int(owner[id])] {
			surv = append(surv, id)
		}
	}
	want := knnOfCandidates(w.ds, q, surv, k)
	if len(ids) != len(want) {
		t.Fatalf("%d results, want %d (over %d surviving candidates)", len(ids), len(want), len(surv))
	}
	got := make([]float64, len(ids))
	for i, id := range ids {
		if failed[int(owner[id])] {
			t.Fatalf("result %d is owned by a failed shard", id)
		}
		got[i] = vec.Dist(q, w.ds.Point(id))
	}
	sort.Float64s(got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: dist %v, want %v", i, got[i], want[i])
		}
	}
}

// TestDegradedShardServing is the tentpole acceptance path: one shard's
// storage fails permanently; without -degraded-ok queries touching it fail
// with a typed ShardError, with it they complete over the surviving shards,
// flagged, and the broken device is never touched again once quarantined.
func TestDegradedShardServing(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 5)
	cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
	specs, owner, local := buildShardSpecs(t, w, 3, shard.RoundRobin)
	se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 1
	const k = 10

	// Degraded serving off: the failure is a typed, shard-attributed error.
	failAllReads(specs[bad].PF)
	sawErr := false
	for _, q := range w.qtest {
		_, _, err := se.SearchCtx(context.Background(), q, k, nil, nil)
		if err != nil {
			sawErr = true
			var serr *ShardError
			if !errors.As(err, &serr) {
				t.Fatalf("error is not a *ShardError: %v", err)
			}
			if serr.Shard != bad {
				t.Fatalf("failure attributed to shard %d, want %d", serr.Shard, bad)
			}
			if !disk.IsPermanent(err) {
				t.Fatalf("disk classification lost through the stack: %v", err)
			}
			break
		}
	}
	if !sawErr {
		t.Fatal("no query ever fetched from the failed shard — test world too small")
	}
	if se.Quarantined(bad) {
		t.Fatal("shard must not be quarantined while degraded serving is off")
	}

	// Degraded serving on: every query completes; queries that needed the
	// failed shard come back flagged with exactly the surviving-shard kNN.
	se.SetDegradedOK(true)
	failedSet := map[int]bool{bad: true}
	degraded := 0
	for qi, q := range w.qtest {
		wasQuarantined := se.Quarantined(bad)
		ids, st, err := se.SearchCtx(context.Background(), q, k, nil, nil)
		if err != nil {
			t.Fatalf("q%d: degraded serving must not fail: %v", qi, err)
		}
		if !wasQuarantined {
			// Pre-quarantine (or quarantining) query: the failure may hit
			// mid-search, after the bad shard already contributed cache-based
			// true hits. Best-effort results are legal there; the strict
			// surviving-shard contract starts once the quarantine is up.
			continue
		}
		if st.Degraded {
			degraded++
			if len(st.FailedShards) != 1 || st.FailedShards[0] != bad {
				t.Fatalf("q%d: FailedShards = %v, want [%d]", qi, st.FailedShards, bad)
			}
			checkDegradedKNN(t, w, owner, failedSet, q, ids, k)
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded query observed")
	}
	if !se.Quarantined(bad) {
		t.Fatal("failed shard was never quarantined")
	}
	if se.Aggregate().DegradedQueries < int64(degraded) {
		t.Fatalf("aggregate DegradedQueries = %d, want >= %d", se.Aggregate().DegradedQueries, degraded)
	}
	sa := se.ShardAggregates()
	if !sa[bad].Quarantined || sa[bad].FetchFailures < 1 {
		t.Fatalf("shard aggregate = %+v, want quarantined with failures", sa[bad])
	}

	// Once quarantined, the broken device is never touched again.
	before := specs[bad].PF.Stats()
	for _, q := range w.qtest[:4] {
		if _, _, err := se.SearchCtx(context.Background(), q, k, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := specs[bad].PF.Stats()
	if after.PageReads != before.PageReads {
		t.Fatalf("quarantined shard was read (%d → %d page reads)", before.PageReads, after.PageReads)
	}
}

// TestDegradedBatchServing pins the batch path: a quarantined shard degrades
// every batch member that needed it, with surviving-shard results.
func TestDegradedBatchServing(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 6)
	cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
	specs, owner, local := buildShardSpecs(t, w, 3, shard.RoundRobin)
	se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	const k = 10
	failAllReads(specs[bad].PF)
	se.Quarantine(bad)
	se.SetDegradedOK(true)

	ids, sts, err := se.SearchBatch(context.Background(), w.qtest, k, nil)
	if err != nil {
		t.Fatalf("degraded batch must not fail: %v", err)
	}
	failedSet := map[int]bool{bad: true}
	degraded := 0
	for j, q := range w.qtest {
		if !sts[j].Degraded {
			// Not degraded ⇒ the query had no candidates on the failed shard.
			cids, _ := candFunc(w.ix)(nil, q, k)
			for _, id := range cids {
				if int(owner[id]) == bad {
					t.Fatalf("q%d not flagged despite candidate on failed shard", j)
				}
			}
			continue
		}
		degraded++
		checkDegradedKNN(t, w, owner, failedSet, q, ids[j], k)
	}
	if degraded == 0 {
		t.Fatal("no degraded batch member observed")
	}
}

// TestQuarantineRefusedWithoutDegradedOK: touching a quarantined shard while
// degraded serving is off is a typed refusal, not a silent partial answer.
func TestQuarantineRefusedWithoutDegradedOK(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 7)
	cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
	specs, owner, local := buildShardSpecs(t, w, 3, shard.RoundRobin)
	se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bad = 0
	se.Quarantine(bad)
	refused := false
	for _, q := range w.qtest {
		_, _, err := se.SearchCtx(context.Background(), q, 10, nil, nil)
		if err == nil {
			// Legal only if no candidate was owned by the quarantined shard.
			cids, _ := candFunc(w.ix)(nil, q, 10)
			for _, id := range cids {
				if int(owner[id]) == bad {
					t.Fatal("query touched quarantined shard without error")
				}
			}
			continue
		}
		if !errors.Is(err, ErrShardQuarantined) {
			t.Fatalf("want ErrShardQuarantined, got %v", err)
		}
		var serr *ShardError
		if !errors.As(err, &serr) || serr.Shard != bad {
			t.Fatalf("refusal not attributed to shard %d: %v", bad, err)
		}
		refused = true
	}
	if !refused {
		t.Fatal("no query was refused")
	}
}

// TestMaintainerQuarantineRebuild: a permanently failed unit is quarantined,
// served around, RCU-rebuilt in the background, and returned to service —
// while the other units keep answering (for N = 1 there are none: queries
// come back flagged and empty until the unit recovers).
func TestMaintainerQuarantineRebuild(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		w := buildTieWorld(t, 1203, 16, 8)
		cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
		m, specs := newTestMaintainer(t, w.ds, w.pf, candFunc(w.ix), n, w.wl, 10, cfg, MaintainOptions{WindowSize: 16})
		defer m.Close()
		m.Sharded().SetDegradedOK(true)
		bad := n / 2
		const k = 10

		// Warm the drift windows so the quarantine rebuild has a workload.
		seedWindows(t, m, w.qtest, len(w.qtest), k)

		failAllReads(specs[bad].PF)
		sawDegraded := false
		for _, q := range w.qtest {
			_, st, err := m.Search(q, k)
			if err != nil {
				t.Fatalf("degraded maintained serving must not fail: %v", err)
			}
			if st.Degraded {
				sawDegraded = true
				break
			}
		}
		if !sawDegraded {
			t.Fatal("no query ever hit the failed unit")
		}
		// The storage "recovers" (e.g. the operator replaced the disk); the
		// quarantine rebuild brings the unit back.
		specs[bad].PF.SetFaults(nil)

		deadline := time.Now().Add(5 * time.Second)
		for m.Sharded().Quarantined(bad) {
			if time.Now().After(deadline) {
				t.Fatal("quarantine rebuild never completed")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if st := m.Stats(); st.Quarantines < 1 {
			t.Fatalf("Stats().Quarantines = %d, want >= 1", st.Quarantines)
		}
		if per := m.ShardStats(); per[bad].Quarantines < 1 {
			t.Fatalf("slot %d Quarantines = %d, want >= 1", bad, per[bad].Quarantines)
		}

		// Back in service: full-results, unflagged queries again.
		for qi, q := range w.qtest[:8] {
			ids, st, err := m.Search(q, k)
			if err != nil {
				t.Fatalf("q%d after rebuild: %v", qi, err)
			}
			if st.Degraded {
				t.Fatalf("q%d still degraded after rebuild", qi)
			}
			checkKNN(t, w, q, ids, k)
		}
	})
}

// TestDegradedShardServingRace hammers concurrent degraded searches against
// fault toggling and quarantine rebuilds; run under -race in CI.
func TestDegradedShardServingRace(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 9)
	cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
	m, specs := newTestMaintainer(t, w.ds, w.pf, candFunc(w.ix), 3, w.wl, 10, cfg, MaintainOptions{WindowSize: 16})
	m.Sharded().SetDegradedOK(true)
	const bad = 1

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := w.qtest[(g*7+i)%len(w.qtest)]
				if i%3 == 0 {
					if _, _, err := m.SearchBatch(context.Background(), w.qtest[:2], 5, nil); err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					continue
				}
				if _, _, err := m.SearchCtx(context.Background(), q, 10, nil, nil); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(g)
	}
	// Fault toggler: break and repair the shard's storage repeatedly while
	// searches and quarantine rebuilds are in flight.
	for i := 0; i < 10; i++ {
		failAllReads(specs[bad].PF)
		time.Sleep(10 * time.Millisecond)
		specs[bad].PF.SetFaults(nil)
		m.Sharded().ClearQuarantine(bad) // repair may race a rebuild: both legal
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	m.Close()
}

// TestChaosDegradedServing is the CI chaos-matrix entry point: transient
// faults at CHAOS_FAULT_P across CHAOS_SHARDS shards, retry enabled — every
// query must succeed with results identical to the fault-free run.
func TestChaosDegradedServing(t *testing.T) {
	p := 0.03
	if v := os.Getenv("CHAOS_FAULT_P"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("CHAOS_FAULT_P: %v", err)
		}
		p = f
	}
	shards := 3
	if v := os.Getenv("CHAOS_SHARDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_SHARDS: %v", err)
		}
		shards = n
	}
	if p > 0.05 {
		t.Fatalf("CHAOS_FAULT_P %v exceeds the acceptance bound 0.05", p)
	}

	w := buildTieWorld(t, 1203, 16, 10)
	cfg := Config{Method: HCO, CacheBytes: 64 << 10, Tau: 6}
	specs, owner, local := buildShardSpecs(t, w, shards, shard.RoundRobin)
	se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10

	// Fault-free baseline.
	type baseline struct {
		ids []int
		st  QueryStats
	}
	base := make([]baseline, len(w.qtest))
	for qi, q := range w.qtest {
		ids, st, err := se.SearchCtx(context.Background(), q, k, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		base[qi] = baseline{ids: ids, st: st}
	}

	se.SetRetry(disk.RetryPolicy{MaxRetries: 30, Backoff: 10 * time.Microsecond, MaxBackoff: 200 * time.Microsecond})
	for s, spec := range specs {
		spec.PF.SetFaults(disk.NewInjector(disk.FaultPolicy{Seed: int64(100 + s), Rules: []disk.FaultRule{
			{Kind: disk.FaultError, FirstPage: 0, LastPage: -1, Probability: p, Transient: true},
		}}))
	}
	for qi, q := range w.qtest {
		ids, st, err := se.SearchCtx(context.Background(), q, k, nil, nil)
		if err != nil {
			t.Fatalf("q%d: transient chaos at p=%v must not fail: %v", qi, p, err)
		}
		if st.Degraded {
			t.Fatalf("q%d: transient faults must never degrade", qi)
		}
		if !sameIDs(ids, base[qi].ids) {
			t.Fatalf("q%d: ids diverged under chaos: %v != %v", qi, ids, base[qi].ids)
		}
		if st.PageReads != base[qi].st.PageReads {
			t.Fatalf("q%d: PageReads %d != clean %d (retries must stay out of logical I/O)",
				qi, st.PageReads, base[qi].st.PageReads)
		}
	}
	ds := se.DiskStats()
	if p > 0 && ds.Retries == 0 {
		t.Logf("chaos run injected no faults (p=%v) — harmless but uninformative", p)
	}
	if ds.PermanentErrors != 0 {
		t.Fatalf("chaos run produced %d permanent errors, injected only transient", ds.PermanentErrors)
	}
}
