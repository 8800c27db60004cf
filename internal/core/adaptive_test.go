package core

import (
	"sync"
	"testing"
	"time"
)

// The adaptive-τ suite. Every test here matches `-run Adaptive`, which is the
// CI race-focus filter for the watchdog loop (adaptive retune vs concurrent
// searches vs quarantine recovery).

// adaptiveCfg is the drift-world configuration the probe landed on: at an
// 8 KiB budget the pool-A workload's optimal τ is 5 (capacity-bound), while a
// concentrated hot set from pool B moves the optimum to 8 (the Ndom=256 cap)
// with a predicted C_refine improvement around 70% — far above the threshold.
// At a 4 KiB budget even the hot set recommends τ = 5, so a watchdog serving
// τ = 5 never accumulates evidence.
func adaptiveCfg(budget int64) Config {
	return Config{Method: HCO, CacheBytes: budget, Tau: 5}
}

// TestAdaptiveNoDriftBitIdentical: with the watchdog armed but the workload
// steady — and the serving τ already the model's recommendation — the
// adaptive maintainer must behave bit-identically to a plain engine built
// from the same profile: same ids, same per-query stats (including
// PageReads), zero retunes, zero rebuilds. The evaluation goroutines only ever
// re-profile windows; they never touch the serving path. Units split the
// budget in proportion to their points, so each sees the probe's physics at
// the same total.
func TestAdaptiveNoDriftBitIdentical(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, _ := driftWorld(t)
		const k = 5
		cfg := adaptiveCfg(4 << 10)
		m, _ := newTestMaintainer(t, ds, pf, cands, n, poolA, k, cfg, MaintainOptions{
			WindowSize: 64, AdaptiveTau: true, RetuneWindows: 2,
		})
		ref, err := NewEngine(pf, BuildProfile(ds, cands, poolA, k), cands, cfg)
		if err != nil {
			t.Fatal(err)
		}

		for i := 0; i < 256; i++ {
			q := poolA[i%len(poolA)]
			gotIDs, gotSt, err := m.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs, wantSt, err := ref.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !sameIDs(gotIDs, wantIDs) {
				t.Fatalf("q%d: ids %v != %v", i, gotIDs, wantIDs)
			}
			if d := diffStats(wantSt, gotSt); d != "" {
				t.Fatalf("q%d: stats diverged: %s", i, d)
			}
		}
		m.Close() // waits out any in-flight window evaluation

		st := m.Stats()
		if st.Retunes != 0 {
			t.Fatalf("steady workload retuned %d times", st.Retunes)
		}
		if st.Rebuilds != 0 {
			t.Fatalf("steady workload rebuilt %d times", st.Rebuilds)
		}
		if st.Tau != cfg.Tau {
			t.Fatalf("τ moved to %d on a steady workload", st.Tau)
		}
		for s, cm := range m.CostModels() {
			if cm == nil {
				t.Fatalf("adaptive slot %d reports no cost model", s)
			}
			if cm.Windows < 1 {
				t.Fatalf("slot %d's watchdog never evaluated a window", s)
			}
			if cm.Retunes != 0 || cm.PendingWindows != 0 {
				t.Fatalf("slot %d's watchdog accumulated evidence on a steady workload: %+v", s, cm)
			}
			if cm.ObservedRhoHit <= 0 || cm.ObservedRhoHit > 1 {
				t.Fatalf("slot %d: observed ρ_hit out of range: %v", s, cm.ObservedRhoHit)
			}
		}
	})
}

// TestAdaptiveRetuneOnDriftLowersPageReads is the acceptance path: the hot
// set collapses onto a few pool-B queries, the watchdogs see the model
// recommend a larger τ with a big predicted C_refine cut, retune rebuilds
// land — and the retuned maintainer measures strictly fewer PageReads on the
// hot set than a static-τ maintainer given the same traffic (and equally
// fresh caches, so τ is the only difference).
func TestAdaptiveRetuneOnDriftLowersPageReads(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, poolB := driftWorld(t)
		const k = 5
		cfg := adaptiveCfg(8 << 10)
		opt := MaintainOptions{WindowSize: 16, MinQueriesBetweenRebuilds: 16, RetuneWindows: 2}
		aopt := opt
		aopt.AdaptiveTau = true

		adaptive, _ := newTestMaintainer(t, ds, pf, cands, n, poolA, k, cfg, aopt)
		defer adaptive.Close()
		static, _ := newTestMaintainer(t, ds, pf, cands, n, poolA, k, cfg, opt)
		defer static.Close()

		// Phase A: the trained workload, both maintainers healthy at τ=5.
		seedWindows(t, adaptive, poolA, 64, k)
		seedWindows(t, static, poolA, 64, k)

		// Phase B: the hot set concentrates on 8 pool-B queries. Keep feeding
		// the adaptive maintainer until every slot's retune rebuild has landed
		// (the ordinary drift rebuild fires first and composes with it — it
		// keeps τ=5, then the watchdog sees the refreshed cache still lose to
		// τ=8 on the hot set).
		hot := poolB[:8]
		retunedEverywhere := func() bool {
			for _, ss := range adaptive.ShardStats() {
				if ss.Retunes == 0 {
					return false
				}
			}
			return true
		}
		deadline := time.Now().Add(60 * time.Second)
		for !retunedEverywhere() {
			if time.Now().After(deadline) {
				t.Fatalf("a watchdog never retuned; stats %+v", adaptive.ShardStats())
			}
			seedWindows(t, adaptive, hot, 16, k)
		}
		waitRebuildIdle(t, adaptive)
		for s, ss := range adaptive.ShardStats() {
			if ss.Tau <= cfg.Tau {
				t.Fatalf("slot %d: retune kept τ at %d (started at %d, hot set wants more bits)", s, ss.Tau, cfg.Tau)
			}
			cm := adaptive.CostModels()[s]
			if cm == nil || cm.Retunes < 1 {
				t.Fatalf("slot %d: cost-model telemetry missed the retune: %+v", s, cm)
			}
			if cm.Tau != ss.Tau {
				t.Fatalf("slot %d: monitor τ %d != serving τ %d", s, cm.Tau, ss.Tau)
			}
		}

		// Give the static maintainer the same hot traffic, then force a rebuild
		// of every slot from its (pure hot-set) window so its caches are just
		// as fresh as the adaptive maintainer's — only τ differs.
		seedWindows(t, static, hot, 200, k)
		waitRebuildIdle(t, static)
		for s := 0; s < n; s++ {
			if err := static.ForceShardRebuild(s); err != nil {
				t.Fatal(err)
			}
		}
		if sst := static.Stats(); sst.Tau != cfg.Tau {
			t.Fatalf("static maintainer moved τ to %d", sst.Tau)
		}

		// Measure PageReads router-to-router (not through the maintainers, so
		// the measurement itself cannot trigger rebuilds mid-pass).
		measure := func(se *ShardedEngine) int64 {
			t.Helper()
			var total int64
			for i := 0; i < 64; i++ {
				_, st, err := se.Search(hot[i%len(hot)], k)
				if err != nil {
					t.Fatal(err)
				}
				total += st.PageReads
			}
			return total
		}
		adReads := measure(adaptive.Sharded())
		stReads := measure(static.Sharded())
		if adReads >= stReads {
			t.Fatalf("adaptive maintainer reads %d pages, static %d — retune did not pay", adReads, stReads)
		}
		t.Logf("hot-set PageReads over 64 queries: adaptive %d vs static(τ=%d) %d", adReads, cfg.Tau, stReads)
	})
}

// TestAdaptiveRetuneQuarantineRace is the race-focus composition test:
// per-slot watchdogs retune independently under concurrent search load, and a
// mid-run permanent storage failure on one unit (degraded-mode serving)
// quarantines, rebuilds and returns it to service — all three rebuild
// triggers (drift, retune, quarantine) share the per-slot RCU machinery and
// must compose without races or lost units. For N = 1 the failed unit is the
// whole dataset: queries come back empty and flagged until it recovers.
func TestAdaptiveRetuneQuarantineRace(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, poolB := driftWorld(t)
		const k = 5
		m, specs := newTestMaintainer(t, ds, pf, cands, n, poolA, k,
			adaptiveCfg(8<<10), MaintainOptions{
				WindowSize: 16, MinQueriesBetweenRebuilds: 16,
				AdaptiveTau: true, RetuneWindows: 2,
			})
		m.Sharded().SetDegradedOK(true)

		hot := poolB[:8]
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := m.Search(hot[(g+i)%len(hot)], k); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
			}(g)
		}

		// Wait for at least one slot's watchdog to retune under load.
		deadline := time.Now().Add(60 * time.Second)
		for m.Stats().Retunes == 0 {
			if time.Now().After(deadline) {
				close(stop)
				wg.Wait()
				t.Fatalf("no slot ever retuned; stats %+v", m.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}

		// Now break one unit's storage while searches and retunes are in
		// flight; it must quarantine, then recover once the device is repaired.
		bad := n - 1
		failAllReads(specs[bad].PF)
		time.Sleep(20 * time.Millisecond)
		specs[bad].PF.SetFaults(nil)
		recovered := time.Now().Add(30 * time.Second)
		for m.Sharded().Quarantined(bad) {
			if time.Now().After(recovered) {
				close(stop)
				wg.Wait()
				t.Fatal("quarantined unit never recovered")
			}
			time.Sleep(5 * time.Millisecond)
		}

		close(stop)
		wg.Wait()
		m.Close()

		st := m.Stats()
		if st.Retunes < 1 {
			t.Fatalf("Retunes = %d after retune observed", st.Retunes)
		}
		// Per-slot telemetry: every adaptive slot exposes a monitor snapshot,
		// and retune counts agree between MaintainStats and the monitors.
		var monRetunes int64
		for s, cm := range m.CostModels() {
			if cm == nil {
				t.Fatalf("slot %d has no cost model", s)
			}
			monRetunes += cm.Retunes
			if cm.Tau != m.ShardStats()[s].Tau {
				t.Fatalf("slot %d: monitor τ %d != serving τ %d", s, cm.Tau, m.ShardStats()[s].Tau)
			}
		}
		if int(monRetunes) != st.Retunes {
			t.Fatalf("monitors count %d retunes, stats %d", monRetunes, st.Retunes)
		}
		// The recovered unit still answers.
		for i := 0; i < 8; i++ {
			ids, qst, err := m.Search(hot[i%len(hot)], k)
			if err != nil {
				t.Fatalf("post-recovery search: %v", err)
			}
			if qst.Degraded || len(ids) != k {
				t.Fatalf("post-recovery search: %d ids, degraded=%v", len(ids), qst.Degraded)
			}
		}
	})
}
