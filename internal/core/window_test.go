package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"exploitbit/internal/disk"
	"exploitbit/internal/multistep"
	"exploitbit/internal/shard"
)

// The refinement window (multistep.SearchSq) opens only when reads wait, so
// these suites make them wait: a latency rule on every page, well above
// overlapFloor. Rules fire first-match, so fault rules go in front of it.
func waitRule(d time.Duration) disk.FaultRule {
	return disk.FaultRule{Kind: disk.FaultLatency, FirstPage: 0, LastPage: -1, Latency: d}
}

func injectAll(pfs []*disk.PointFile, rules ...disk.FaultRule) {
	for i, pf := range pfs {
		pf.SetFaults(disk.NewInjector(disk.FaultPolicy{Seed: int64(300 + i), Rules: rules}))
	}
}

func clearFaults(pfs []*disk.PointFile) {
	for _, pf := range pfs {
		pf.SetFaults(nil)
	}
}

func specFiles(specs []ShardSpec) []*disk.PointFile {
	pfs := make([]*disk.PointFile, len(specs))
	for i, s := range specs {
		pfs[i] = s.PF
	}
	return pfs
}

// failUpperHalf fails, permanently, every read of the upper half of pf's
// pages: some of the file's candidates still read fine, so a window can hold
// good reads of a shard that is about to fail.
func failUpperHalf(pf *disk.PointFile) disk.FaultRule {
	return disk.FaultRule{Kind: disk.FaultError, FirstPage: pf.Device().NumPages() / 2, LastPage: -1}
}

// goroutinesSettle waits up to grace for the goroutine count to fall back to
// base and reports whether it did.
func goroutinesSettle(base int, grace time.Duration) bool {
	for deadline := time.Now().Add(grace); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// ref is one query's outcome on the side of the gate a test compares against.
type ref struct {
	ids []int
	st  QueryStats
}

// windowRow is one scorer over its own files; gate is its pipeline's.
type windowRow struct {
	name string
	s    rowSearcher
	pfs  []*disk.PointFile
	gate *pipeline
}

func windowRows(t *testing.T, w *world, cfg Config) []windowRow {
	t.Helper()
	flat, err := NewEngine(w.pf, w.prof, candFunc(w.ix), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := []windowRow{{"flat", flat, []*disk.PointFile{w.pf}, &flat.pipeline}}
	for _, n := range []int{1, 3} {
		specs, owner, local := layoutFor(t, w.ds, w.pf, n)
		se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, windowRow{fmt.Sprintf("router-%d", n), se, specFiles(specs), &se.pipeline})
	}
	return rows
}

// TestRefineOverlapsOnlyWhenReadsWait is the gate, observed from outside.
// Reads that do not wait are taken one at a time — RefineWaits equals the
// I/O fetch count and the search allocates nothing, so it started no
// goroutine. Behind a device that makes every read wait 200 µs, from the
// second query on (the first one's first read is what the gate observes)
// reads overlap — fewer waits than fetches — and ids and every count are
// those of the unwaited run.
func TestRefineOverlapsOnlyWhenReadsWait(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 5)
	const k = 10
	for _, row := range windowRows(t, w, Config{Method: HCO, CacheBytes: 16 << 10, Tau: 6}) {
		refs := make([]ref, len(w.qtest))
		busiest, hiccups := 0, 0
		for qi, q := range w.qtest {
			// A page-cache read can still take the floor now and then (a
			// preempted reader, the race detector): the next query overlaps,
			// as it should. Everywhere else the reads are serial.
			slow := row.gate.readWait.Load() >= int64(overlapFloor)
			ids, st, err := row.s.SearchInto(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if slow {
				hiccups++
			} else if st.RefineWaits != st.Fetched {
				t.Fatalf("%s q%d: unwaited reads: RefineWaits %d, Fetched %d", row.name, qi, st.RefineWaits, st.Fetched)
			}
			refs[qi] = ref{ids, st}
			if st.Fetched > refs[busiest].st.Fetched {
				busiest = qi
			}
		}
		if refs[busiest].st.Fetched < 2 {
			t.Fatalf("%s: no query fetches twice; fixture cannot show overlap", row.name)
		}
		if !raceEnabled && hiccups > len(w.qtest)/4 {
			t.Fatalf("%s: %d of %d queries saw an unwaited read take %v", row.name, hiccups, len(w.qtest), overlapFloor)
		}
		if !raceEnabled {
			dst := make([]int, 0, 64)
			if allocs := testing.AllocsPerRun(50, func() {
				dst, _, _ = row.s.SearchInto(w.qtest[busiest], k, dst[:0])
			}); allocs != 0 {
				t.Fatalf("%s: %v allocs per search with %d unwaited fetches: a goroutine started", row.name, allocs, refs[busiest].st.Fetched)
			}
		}

		injectAll(row.pfs, waitRule(200*time.Microsecond))
		overlapped := 0
		for qi, q := range w.qtest {
			ids, st, err := row.s.SearchInto(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(ids, refs[qi].ids) {
				t.Fatalf("%s q%d: ids %v behind a waiting device, %v without", row.name, qi, ids, refs[qi].ids)
			}
			if d := diffStats(refs[qi].st, st); d != "" {
				t.Fatalf("%s q%d: stats moved behind a waiting device: %s", row.name, qi, d)
			}
			if qi == 0 {
				continue
			}
			// Two reads and room for two results: the rule issues the second
			// read while the first is in flight.
			if st.Fetched >= 2 && k-st.TrueHits >= 2 {
				overlapped++
				if st.RefineWaits >= st.Fetched {
					t.Fatalf("%s q%d: %d waits for %d fetches behind a waiting device", row.name, qi, st.RefineWaits, st.Fetched)
				}
			} else if st.RefineWaits > st.Fetched {
				t.Fatalf("%s q%d: %d waits for %d fetches", row.name, qi, st.RefineWaits, st.Fetched)
			}
		}
		clearFaults(row.pfs)
		if overlapped == 0 {
			t.Fatalf("%s: no query could overlap", row.name)
		}
	}
}

// TestWindowServesAroundFailingShardLikeSerial: a shard of a 3-unit router
// dies mid-window. Query by query the windowed router (waiting device) and
// its serial twin (same fault, reads that do not wait) return the same ids,
// Fetched, PageReads, Degraded and FailedShards, and book the same single
// fetch failure — candidates of the failed shard that were already in flight
// are dropped at admit, not charged. The one permitted difference is
// physical: up to MaxDepth−1 reads per failure were already on their way to
// the device, which only the device's own counter sees.
func TestWindowServesAroundFailingShardLikeSerial(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 5)
	cfg := Config{Method: HCO, CacheBytes: 16 << 10, Tau: 6}
	const bad, k = 1, 10
	build := func() (*ShardedEngine, []ShardSpec) {
		specs, owner, local := buildShardSpecs(t, w, 3, shard.RoundRobin)
		se, err := NewShardedEngine(specs, owner, local, w.prof, candFunc(w.ix), cfg)
		if err != nil {
			t.Fatal(err)
		}
		se.SetDegradedOK(true)
		return se, specs
	}
	serial, sspecs := build()
	win, wspecs := build()
	wait := waitRule(200 * time.Microsecond)
	injectAll(specFiles(wspecs), wait)
	for _, se := range []*ShardedEngine{serial, win} {
		if _, _, err := se.Search(w.qtest[0], k); err != nil { // win's gate observes its device
			t.Fatal(err)
		}
	}
	sspecs[bad].PF.SetFaults(disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{failUpperHalf(sspecs[bad].PF)}}))
	wspecs[bad].PF.SetFaults(disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{failUpperHalf(wspecs[bad].PF), wait}}))
	sBefore, wBefore := sspecs[bad].PF.Stats().PageReads, wspecs[bad].PF.Stats().PageReads

	var failures, waits, fetched int64
	for qi, q := range w.qtest {
		serial.ClearQuarantine(bad)
		win.ClearQuarantine(bad)
		wantIDs, want, err := serial.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		ids, st, err := win.Search(q, k)
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		if !sameIDs(ids, wantIDs) {
			t.Fatalf("q%d: ids %v, serial %v", qi, ids, wantIDs)
		}
		if d := diffStats(want, st); d != "" {
			t.Fatalf("q%d: %s", qi, d)
		}
		if st.Degraded != want.Degraded || !sameIDs(st.FailedShards, want.FailedShards) {
			t.Fatalf("q%d: degraded %v %v, serial %v %v", qi, st.Degraded, st.FailedShards, want.Degraded, want.FailedShards)
		}
		sf, wf := serial.ShardAggregates()[bad].FetchFailures, win.ShardAggregates()[bad].FetchFailures
		if wf != sf || wf-failures > 1 {
			t.Fatalf("q%d: %d fetch failures booked (serial %d, before the query %d)", qi, wf, sf, failures)
		}
		failures = wf
		waits, fetched = waits+int64(st.RefineWaits), fetched+int64(st.Fetched)
	}
	if failures == 0 {
		t.Fatal("no query read a failing page")
	}
	if waits >= fetched {
		t.Fatalf("%d waits for %d fetches: the window never opened", waits, fetched)
	}
	for s := range wspecs {
		sa, wa := serial.ShardAggregates()[s].Agg, win.ShardAggregates()[s].Agg
		if sa.Fetched != wa.Fetched || sa.PageReads != wa.PageReads {
			t.Fatalf("shard %d charged %d fetches / %d pages, serial %d / %d", s, wa.Fetched, wa.PageReads, sa.Fetched, sa.PageReads)
		}
	}
	extra := (wspecs[bad].PF.Stats().PageReads - wBefore) - (sspecs[bad].PF.Stats().PageReads - sBefore)
	if extra < 0 || extra > failures*(multistep.MaxDepth-1) {
		t.Fatalf("failed shard's device served %d reads beyond the serial run's over %d failures", extra, failures)
	}
	t.Logf("%d failures, %d physical reads already in flight, %d waits for %d fetches", failures, extra, waits, fetched)
}

// TestWindowAbortDrainsBeforeReturn: an error refinement cannot serve around
// ends the query only after every read in flight has finished — their
// buffers belong to the pooled scratch. The reads still in flight wait 100 ms
// each, so a search that returned without draining would leave its reading
// goroutines behind for that long.
func TestWindowAbortDrainsBeforeReturn(t *testing.T) {
	w := buildWorld(t, 1500, 12, 7)
	const k = 10
	// NoCache: every lower bound is 0, so the window holds k reads.
	rows := windowRows(t, w, Config{Method: NoCache})
	for _, row := range []windowRow{rows[0], rows[2]} {
		q := w.qtest[0]
		wantIDs, _, err := row.s.SearchInto(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		injectAll(row.pfs, waitRule(200*time.Microsecond))
		if _, _, err := row.s.SearchInto(q, k, nil); err != nil { // the gate observes the device
			t.Fatal(err)
		}
		var before int64
		for _, pf := range row.pfs {
			pf.SetFaults(disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{failUpperHalf(pf), waitRule(100 * time.Millisecond)}}))
			before += pf.Stats().PageReads
		}
		base := runtime.NumGoroutine()
		_, st, err := row.s.SearchInto(q, k, nil)
		if !disk.IsPermanent(err) {
			t.Fatalf("%s: err = %v, want the permanent page error", row.name, err)
		}
		if !goroutinesSettle(base, 20*time.Millisecond) {
			t.Fatalf("%s: search returned with %d reading goroutines still running", row.name, runtime.NumGoroutine()-base)
		}
		var after int64
		for _, pf := range row.pfs {
			after += pf.Stats().PageReads
		}
		if after-before <= st.PageReads+1 {
			t.Fatalf("%s: device served %d reads for %d charged: nothing was in flight when the read failed", row.name, after-before, st.PageReads)
		}
		clearFaults(row.pfs)
		if ids, _, err := row.s.SearchInto(q, k, nil); err != nil || !sameIDs(ids, wantIDs) {
			t.Fatalf("%s: search after the abort: ids %v err %v, want %v", row.name, ids, err, wantIDs)
		}
	}
}

// TestWindowCancelStopsIssuing: a request canceled mid-refinement returns
// its context's error at once (the in-flight reads leave their injected 2 s
// delay, see disk.TestFaultLatencyHonoursCancel), issues nothing further,
// and leaves no goroutine behind.
func TestWindowCancelStopsIssuing(t *testing.T) {
	w := buildWorld(t, 1500, 12, 7)
	const k = 10
	for _, row := range windowRows(t, w, Config{Method: NoCache}) {
		q := w.qtest[0]
		wantIDs, ref, err := row.s.SearchInto(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		injectAll(row.pfs, waitRule(200*time.Microsecond))
		if _, _, err := row.s.SearchInto(q, k, nil); err != nil {
			t.Fatal(err)
		}
		injectAll(row.pfs, waitRule(2*time.Second))
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		_, st, err := row.s.SearchCtx(ctx, q, k, nil, nil)
		elapsed := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", row.name, err)
		}
		if elapsed > time.Second {
			t.Fatalf("%s: canceled search took %v: it waited out an injected delay", row.name, elapsed)
		}
		if st.Fetched >= ref.Fetched {
			t.Fatalf("%s: canceled search fetched %d of %d", row.name, st.Fetched, ref.Fetched)
		}
		var reads int64
		for _, pf := range row.pfs {
			reads += pf.Stats().PageReads
		}
		if !goroutinesSettle(base, time.Second) {
			t.Fatalf("%s: %d goroutines outlive the canceled search", row.name, runtime.NumGoroutine()-base)
		}
		for _, pf := range row.pfs {
			reads -= pf.Stats().PageReads
		}
		if reads != 0 {
			t.Fatalf("%s: %d reads issued after the canceled search returned", row.name, -reads)
		}
		clearFaults(row.pfs)
		if ids, _, err := row.s.SearchInto(q, k, nil); err != nil || !sameIDs(ids, wantIDs) {
			t.Fatalf("%s: search after the cancel: ids %v err %v, want %v", row.name, ids, err, wantIDs)
		}
	}
}

// TestWindowRetriesTransientFaultsInSlot: transient faults are retried where
// they always were, inside the read — now inside its slot — so behind a
// waiting, flaky device ids and logical I/O are those of the clean run.
func TestWindowRetriesTransientFaultsInSlot(t *testing.T) {
	w := buildTieWorld(t, 1203, 16, 10)
	const k = 10
	for _, row := range windowRows(t, w, Config{Method: HCO, CacheBytes: 16 << 10, Tau: 6}) {
		refs := make([]ref, len(w.qtest))
		for qi, q := range w.qtest {
			ids, st, err := row.s.SearchInto(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			refs[qi] = ref{ids, st}
		}
		var before disk.Stats
		for _, pf := range row.pfs {
			pf.SetRetry(disk.RetryPolicy{MaxRetries: 30, Backoff: 10 * time.Microsecond, MaxBackoff: 200 * time.Microsecond})
			before.Retries += pf.Stats().Retries
		}
		injectAll(row.pfs,
			disk.FaultRule{Kind: disk.FaultError, FirstPage: 0, LastPage: -1, Probability: 0.05, Transient: true},
			waitRule(200*time.Microsecond))
		var waits, fetched int
		for qi, q := range w.qtest {
			ids, st, err := row.s.SearchInto(q, k, nil)
			if err != nil {
				t.Fatalf("%s q%d: %v", row.name, qi, err)
			}
			if !sameIDs(ids, refs[qi].ids) {
				t.Fatalf("%s q%d: ids %v, clean %v", row.name, qi, ids, refs[qi].ids)
			}
			if d := diffStats(refs[qi].st, st); d != "" || st.Degraded {
				t.Fatalf("%s q%d: %s (degraded %v)", row.name, qi, d, st.Degraded)
			}
			waits, fetched = waits+st.RefineWaits, fetched+st.Fetched
		}
		clearFaults(row.pfs)
		var retries int64
		for _, pf := range row.pfs {
			retries += pf.Stats().Retries
			pf.SetRetry(disk.RetryPolicy{})
		}
		if retries == before.Retries {
			t.Fatalf("%s: no transient fault fired", row.name)
		}
		if waits >= fetched {
			t.Fatalf("%s: %d waits for %d fetches: the window never opened", row.name, waits, fetched)
		}
	}
}
