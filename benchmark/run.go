package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"exploitbit"
)

// runRecord is one run of one workload, as stored in a report file.
type runRecord struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     int64   `json:"seed"`
	WallS    float64 `json:"wall_s"` // the whole run: set-ups, oracle, windows, probe
	Error    string  `json:"first_error,omitempty"`
	result
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// untimedLimit bounds each untimed stretch around http_live's measured window
// (the ramp before it, the last compaction after it) by the run length, so a
// slow host ends in an error that says what was slow, not in a driver timeout.
// Neither stretch depends on the run length (here: about 2.5 s and under 3 s),
// hence the floor for short runs.
func (c *config) untimedLimit() time.Duration {
	return time.Duration(math.Max(c.seconds, 5) * float64(time.Second))
}

// waitIdle waits for an in-flight compaction to land, so that what follows
// neither races it for the processor nor closes the system under it.
func (fx *fixture) waitIdle() error {
	limit := fx.cfg.untimedLimit()
	for start := time.Now(); fx.ls.Stats().CompactInFlight; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > limit {
			return fmt.Errorf("%s: the last compaction was still running %v after the measured window", fx.def.name, limit)
		}
	}
	return nil
}

func compactionSeen(st exploitbit.LiveStats) bool {
	return st.CompactInFlight || st.Compactions > 0
}

// runOne performs one run: set-up (timed), the
// oracle, an untimed warm-up, the measured window(s), and the checks.
// Untraced runs yield the end-to-end metrics. Traced runs measure untraced
// and traced stretches on one fixture and yield the per-layer metrics from
// the traced ones; end-to-end metrics never come from them.
func runOne(man *manifest, def *workloadDef, cfg *config, traced bool, traceOut string) (*runRecord, error) {
	begin := time.Now()
	rec := &runRecord{Workload: def.name, Seed: cfg.seed}
	if traced {
		rec.Trace = 1
	}
	fx, err := buildFixture(def, cfg, filepath.Join(cfg.dir, def.name))
	if err != nil {
		return nil, err
	}
	defer fx.close()

	stream := fx.stream()
	var orc *oracle
	if !def.writes {
		if orc, err = fx.buildOracle(stream); err != nil {
			return nil, err
		}
	}
	if traced && def.kind == fixLive {
		// The live fixture builds its engine inside OpenLive; time the same
		// construction on a flat twin so the set-up split has all its parts.
		t := time.Now()
		if _, err := fx.sys.Engine(exploitbit.HCO, fx.budget, fx.tau); err != nil {
			return nil, err
		}
		fx.times.engine = time.Since(t)
	}

	var measure func(seconds float64, writes bool, tr *tracer) *window
	var clients []*httpClient
	var live *liveState
	if def.kind == fixLive {
		clients = fx.newClients(stream, orc)
		if traced {
			live = fx.startSampler()
			defer live.close()
		}
		measure = func(seconds float64, writes bool, tr *tracer) *window {
			return fx.runClients(clients, seconds, writes, live, tr)
		}
	} else {
		measure = func(seconds float64, _ bool, tr *tracer) *window {
			return fx.runLaps(stream, orc, seconds, tr)
		}
	}

	// Warm-up: untimed, search only, and short (page cache, runtime, pooled
	// scratch, keep-alive connections). On the HTTP fixtures it doubles as the
	// quiescent baseline of ingest.live_tax_ratio.
	if def.inject {
		fx.sys.PF.SetFaults(latencyInjector())
	}
	var warm *window
	if def.kind == fixLive {
		warm = measure(math.Min(0.5, cfg.seconds/4), false, nil)
	} else {
		warm = fx.runLaps(stream[:max(1, min(len(stream)/2, cfg.scaled(200)))], orc, 0, nil)
	}
	if def.writes {
		// Ramp: run the write mix untimed until the first compaction has
		// started, so the measured window sees the steady state of a deployment
		// under writes and not the quiet stretch before the first threshold.
		for start := time.Now(); !compactionSeen(fx.ls.Stats()); {
			if limit := cfg.untimedLimit(); time.Since(start) > limit {
				return nil, fmt.Errorf("%s: no compaction started within %v of the write mix", def.name, limit)
			}
			measure(math.Min(0.25, cfg.seconds/4), true, nil)
		}
	}
	runtime.GC()

	var tr *tracer
	var untraced, win *window
	if !traced {
		win = measure(cfg.seconds, def.writes, nil)
		untraced = win
	} else {
		// Untraced and traced slices alternate, so that state which drifts
		// over a run (the delta overlay, a compaction's progress) lands on
		// both sides of bench.trace_overhead_ratio alike.
		tr = newTracer(def.clients)
		untraced, win = &window{}, &window{}
		for slice := 0; slice < 2; slice++ {
			untraced.then(measure(cfg.seconds/4, def.writes, nil))
			fx.traceServer(tr)
			win.then(measure(cfg.seconds/4, def.writes, tr))
			fx.traceServer(nil)
		}
	}
	if def.inject {
		fx.sys.PF.SetFaults(nil)
	}
	if live != nil {
		live.close() // before anything below closes the system it polls
	}

	values := make(map[string]float64)
	if !traced {
		lat := sortedCopy(win.searchLat)
		values["search_p50_ms"] = percentileMs(lat, 0.50)
		values["search_p95_ms"] = percentileMs(lat, 0.95)
		values["search_qps"] = ratio(float64(len(lat)), win.wall.Seconds())
		values["page_reads_per_query"] = ratio(float64(win.agg.PageReads), float64(win.agg.Queries))
		values["setup_s"] = fx.times.total.Seconds()
	} else {
		if fx.ls != nil {
			if err := fx.waitIdle(); err != nil {
				return nil, err
			}
		}
		fx.layerMetrics(values, warm, untraced, win, live)
		spans := tr.spans()
		for name, share := range selfShares(spans) {
			values["trace.self_share."+name] = share
		}
		if err := fx.probe(values); err != nil {
			return nil, err
		}
		if traceOut != "" {
			if err := writeSpans(traceOut, spans); err != nil {
				return nil, err
			}
		}
	}

	// Reconciliation: every page the device served was charged to a query,
	// and no query spent more time in its phases than its caller waited.
	total := &window{}
	wins := []*window{win}
	if traced {
		wins = append(wins, untraced)
	}
	for _, w := range wins {
		total.attempted += w.attempted
		total.failed += w.failed
		if total.firstErr == "" {
			total.firstErr = w.firstErr
		}
		if !def.writes && w.diskReads != w.agg.PageReads {
			total.fail("device served %d page reads, queries were charged %d", w.diskReads, w.agg.PageReads)
		}
		if phases := int64(w.agg.GenTime + w.agg.ReduceTime + w.agg.RefineTime); phases > w.latSum {
			total.fail("phase times %d ns exceed caller latency %d ns", phases, w.latSum)
		}
	}
	if def.writes {
		if err := fx.checkRecovery(clients, total); err != nil {
			return nil, err
		}
	}

	if rec.Metrics, err = man.seal(values, traced); err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.Error = total.attempted, total.failed, total.firstErr
	rec.Correct = total.failed == 0
	rec.WallS = time.Since(begin).Seconds()
	return rec, nil
}

// layerMetrics computes the per-layer metrics that come from the operations
// themselves: the counts and phase times the public API returns per query,
// device and process deltas, and the state of the write path.
func (fx *fixture) layerMetrics(v map[string]float64, warm, untraced, w *window, live *liveState) {
	a := w.agg
	q, cands := float64(a.Queries), float64(a.Candidates)
	perQueryMs := func(d time.Duration) float64 { return ratio(float64(d)/1e6, q) }

	v["lsh.gen_ms"] = perQueryMs(a.GenTime)
	v["lsh.candidates"] = ratio(cands, q)
	v["core.reduce_ms"] = perQueryMs(a.ReduceTime)
	v["core.pruned_ratio"] = ratio(float64(a.Pruned), cands)
	v["core.true_hit_ratio"] = ratio(float64(a.TrueHits), q*searchK)
	v["core.refine_ratio"] = ratio(float64(a.Remaining), cands)
	v["cache.hit_ratio"] = ratio(float64(a.Hits), cands)
	v["multistep.refine_ms"] = perQueryMs(a.RefineTime)
	v["multistep.fetched_per_query"] = ratio(float64(a.Fetched), q)
	v["multistep.useful_fetch_ratio"] = ratio(float64(w.useful), float64(a.Fetched))

	// The wire stats do not say whether the LUT or the parallel reduce ran;
	// over HTTP the serving engine's own aggregate does.
	gate := a
	if fx.ls != nil {
		gate = fx.servingEngine().Aggregate()
	}
	v["core.lut_query_ratio"] = ratio(float64(gate.LUTQueries), float64(gate.Queries))
	v["core.parallel_reduce_ratio"] = ratio(float64(gate.ParallelQueries), float64(gate.Queries))

	eng := fx.servingEngine()
	if fx.sharded != nil {
		v["cache.len"], v["cache.capacity"] = float64(fx.sharded.CacheLen()), float64(fx.sharded.CacheCapacity())
	} else {
		v["cache.len"], v["cache.capacity"] = float64(eng.CacheLen()), float64(eng.CacheCapacity())
	}
	v["histogram.build_s"] = eng.HistogramBuildTime().Seconds()
	v["histogram.space_bytes"] = float64(eng.HistogramSpaceBytes())

	// costmodel: Section 4's predictions at the serving tau against what the
	// window observed.
	in := fx.sys.CostInputs(fx.budget)
	v["costmodel.tau"] = float64(fx.tau)
	v["costmodel.rho_hit_abs_err"] = math.Abs(in.HitRatioForTau(fx.tau) - v["cache.hit_ratio"])
	v["costmodel.rho_refine_pred_over_obs"] = ratio(in.RefineRatioForTau(fx.tau), v["core.refine_ratio"])

	v["disk.page_reads"] = float64(w.diskReads)
	v["disk.unaccounted_reads"] = float64(w.diskReads - a.PageReads)
	v["disk.retries"] = float64(w.diskRetries)
	v["disk.errors"] = float64(w.diskErrors)

	v["shard.candidate_imbalance"], v["shard.identical_ratio"] = 0, 0
	if fx.sharded != nil {
		var most, sum float64
		aggs := fx.sharded.ShardAggregates()
		for _, s := range aggs {
			most = math.Max(most, float64(s.Agg.Candidates))
			sum += float64(s.Agg.Candidates)
		}
		v["shard.candidate_imbalance"] = ratio(most, sum/float64(len(aggs)))
		v["shard.identical_ratio"] = ratio(float64(w.identical), q)
	}

	lat, base := sortedCopy(w.searchLat), sortedCopy(untraced.searchLat)
	v["client.search_p99_ms"] = percentileMs(lat, 0.99)
	v["bench.unattributed_us"] = percentileMs(sortedCopy(w.unattributed), 0.50) * 1e3
	v["bench.reconcile_ratio"] = ratio(float64(a.GenTime+a.ReduceTime+a.RefineTime), float64(w.latSum))
	v["bench.trace_overhead_ratio"] = ratio(percentileMs(lat, 0.50), percentileMs(base, 0.50))

	ops := float64(w.attempted)
	v["server.shed"] = float64(w.shed)
	v["server.request_bytes"] = ratio(float64(w.reqBytes), ops)
	v["server.response_bytes"] = ratio(float64(w.respBytes), ops)

	for _, name := range []string{
		"ingest.compactions", "ingest.compacting_share", "ingest.delta_points_max", "ingest.tombstones_end",
		"ingest.compacting_tax_ratio", "ingest.live_tax_ratio", "ingest.insert_rate_at_p50", "ingest.insert_rate_at_p95",
		"core.rebuilds", "core.rebuild_errors",
	} {
		v[name] = 0
	}
	if fx.ls != nil {
		st, ms := fx.ls.Stats(), fx.ls.Maintainer.Stats()
		v["ingest.compactions"] = float64(st.Compactions)
		v["ingest.tombstones_end"] = float64(st.Tombstones)
		v["ingest.delta_points_max"] = float64(live.deltaMax.Load())
		v["core.rebuilds"], v["core.rebuild_errors"] = float64(ms.Rebuilds), float64(ms.RebuildErrors+int(st.CompactionErrors))
		v["ingest.compacting_share"] = ratio(float64(len(w.compacting)), float64(len(w.compacting)+len(w.idle)))
		const enough = 20 // samples a bucket needs before its median means anything
		if len(w.compacting) >= enough && len(w.idle) >= enough {
			v["ingest.compacting_tax_ratio"] = ratio(percentileMs(sortedCopy(w.compacting), 0.5), percentileMs(sortedCopy(w.idle), 0.5))
		}
		v["ingest.live_tax_ratio"] = ratio(percentileMs(lat, 0.50), percentileMs(sortedCopy(warm.searchLat), 0.50))
		if ins := sortedCopy(w.insertLat); len(ins) > 0 {
			v["ingest.insert_rate_at_p50"] = ratio(1e3, percentileMs(ins, 0.50))
			v["ingest.insert_rate_at_p95"] = ratio(1e3, percentileMs(ins, 0.95))
		}
	}

	v["dataset.gen_s"] = fx.times.gen.Seconds()
	v["exploitbit.open_s"] = fx.times.open.Seconds()
	v["core.engine_build_s"] = fx.times.engine.Seconds()

	v["proc.allocs_per_op"] = ratio(float64(w.mallocs), ops)
	v["proc.bytes_per_op"] = ratio(float64(w.allocBytes), ops)
	v["proc.gc_cycles"] = float64(w.gcCycles)
	v["proc.cpu_util"] = ratio(w.cpu.Seconds(), w.wall.Seconds())
	v["proc.peak_rss_mb"] = peakRSSMB()
}
