package exploitbit

import (
	"context"
	"net/http"
	"time"

	"exploitbit/internal/core"
	"exploitbit/internal/disk"
	"exploitbit/internal/server"
)

// ServeOptions tunes the HTTP handler's request lifecycle. Zero values
// select the documented defaults.
type ServeOptions struct {
	// MaxK caps the k accepted by /search (default 1000).
	MaxK int
	// MaxInFlight is the admission limit: concurrent searches beyond it are
	// shed with 503 and counted on /metrics (default 256). A batch holds one
	// slot per vector.
	MaxInFlight int
	// MaxBatch caps the vectors accepted by one /search/batch request
	// (default 64).
	MaxBatch int
}

// searcher is what every served engine type — Engine, Sharded, Maintainer —
// gives the HTTP handler.
type searcher interface {
	SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *core.Merge) ([]int, QueryStats, error)
	SearchBatch(ctx context.Context, qs [][]float32, k int, mg *core.Merge) ([][]int, []QueryStats, error)
	Dim() int
	DiskStats() disk.Stats
}

// served adapts a searcher to everything the HTTP handler discovers on its
// Searcher: single and batch search in the wire vocabulary (every searcher
// coalesces a batch's refinement I/O, so overlapping queries share page reads
// — under a live overlay too) and the telemetry report. Which blocks a
// deployment reports is decided here and nowhere else, by which of the
// optional fields its Serve* constructor set.
type served struct {
	s      searcher
	shards func() []ShardAggregate // nil: the static flat engine has no shards[]
	m      *Maintainer             // nil: nothing rebuilds — no maintain, no costmodel
	ls     *LiveSystem             // nil: no write path — no overlay, no ingest
}

// overlay is the one overlay value a request searches under: the live
// system's published one, nil (plain search) without a write path.
func (sv served) overlay() *core.Merge {
	if sv.ls == nil {
		return nil
	}
	return sv.ls.Live.Overlay()
}

// newHandler is the one place a handler is built. A live system is served
// through the servedLive variant, which adds the write methods the handler
// discovers as its Ingestor.
func newHandler(sv served, opt ServeOptions) http.Handler {
	var s server.Searcher = sv
	if sv.ls != nil {
		s = servedLive{sv}
	}
	return server.New(s, server.Config{
		Dim: sv.s.Dim(), MaxK: opt.MaxK, MaxInFlight: opt.MaxInFlight, MaxBatch: opt.MaxBatch,
	})
}

// Serve returns an http.Handler exposing the engine: POST /search, POST
// /search/batch, GET /stats, GET /metrics, GET /healthz. Safe for concurrent
// requests; the request context is plumbed into the search, so a disconnected
// client abandons its query before refinement I/O.
func Serve(eng *Engine, opt ServeOptions) http.Handler {
	return newHandler(served{s: eng}, opt)
}

// ServeSharded is Serve over a scatter-gather sharded engine: results are
// bit-identical to the unsharded engine, and /stats and /metrics carry a
// "shards" array with each shard's load, cache fill and I/O.
func ServeSharded(se *Sharded, opt ServeOptions) http.Handler {
	return newHandler(served{s: se, shards: se.ShardAggregates}, opt)
}

// ServeMaintained is Serve over a self-maintaining searcher: each shard unit
// (one, when unsharded) rebuilds its cache in the background under workload
// drift while requests flow. /stats carries the aggregate "maintain" object
// and every "shards" entry its own rebuild activity and, when adaptive,
// cost-model telemetry.
func ServeMaintained(m *Maintainer, opt ServeOptions) http.Handler {
	return newHandler(served{s: m, shards: m.ShardAggregates, m: m}, opt)
}

func wireStats(st QueryStats) server.Stats {
	return server.Stats{
		Candidates:  st.Candidates,
		Hits:        st.Hits,
		Pruned:      st.Pruned,
		TrueHits:    st.TrueHits,
		Remaining:   st.Remaining,
		Fetched:     st.Fetched,
		PageReads:   st.PageReads,
		SimulatedIO: st.SimulatedIO,
		GenTime:     st.GenTime,
		ReduceTime:  st.ReduceTime,
		RefineTime:  st.RefineTime,

		Degraded:     st.Degraded,
		FailedShards: st.FailedShards,
	}
}

func (sv served) Search(ctx context.Context, q []float32, k int) ([]int, server.Stats, error) {
	ids, st, err := sv.s.SearchCtx(ctx, q, k, nil, sv.overlay())
	return ids, wireStats(st), err
}

func (sv served) SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []server.Stats, error) {
	ids, sts, err := sv.s.SearchBatch(ctx, qs, k, sv.overlay())
	if err != nil {
		return nil, nil, err
	}
	out := make([]server.Stats, len(sts))
	for i, st := range sts {
		out[i] = wireStats(st)
	}
	return ids, out, nil
}

// Report assembles every telemetry block from one snapshot of each source.
// The aggregate maintain and costmodel blocks are folded from the very rows
// shown in shards[], so an aggregate cannot disagree with the rows printed
// beside it.
func (sv served) Report() server.Report {
	ds := sv.s.DiskStats()
	rep := server.Report{IO: &server.IOStats{
		Retries: ds.Retries, TransientErrors: ds.TransientErrors, PermanentErrors: ds.PermanentErrors,
	}}
	if sv.shards != nil {
		aggs := sv.shards()
		rep.Shards = make([]server.ShardStat, len(aggs))
		for i, a := range aggs {
			st := server.ShardStat{
				Shard:         a.Shard,
				Points:        a.Points,
				CachedItems:   a.CachedItems,
				CacheCapacity: a.CacheCapacity,
				Queries:       int64(a.Agg.Queries),
				Candidates:    a.Agg.Candidates,
				Hits:          a.Agg.Hits,
				Remaining:     a.Agg.Remaining,
				Fetched:       a.Agg.Fetched,
				PageReads:     a.Agg.PageReads,
				RhoHitEwma:    a.Agg.EwmaRhoHit,
				RhoRefineEwma: a.Agg.EwmaRhoRefine,
				Quarantined:   a.Quarantined,
				FetchFailures: a.FetchFailures,
			}
			if a.Agg.Candidates > 0 {
				st.HitRatio = float64(a.Agg.Hits) / float64(a.Agg.Candidates)
				st.RefineRatio = float64(a.Agg.Remaining) / float64(a.Agg.Candidates)
			}
			rep.Shards[i] = st
		}
	}
	if m := sv.m; m != nil {
		// Positional with the router's shards: one slot per unit.
		rows, cms := m.ShardStats(), m.CostModels()
		for i := range rep.Shards {
			rep.Shards[i].Maintain = wireRebuildStats(rows[i])
			if cms[i] != nil {
				cm := server.CostModelStats(*cms[i])
				rep.Shards[i].CostModel = &cm
			}
		}
		rep.Maintain = wireRebuildStats(core.FoldMaintainStats(rows))
		rep.CostModel = foldCostModels(rep.Shards)
	}
	if ls := sv.ls; ls != nil {
		rep.Ingest = &server.IngestStats{
			IngestCounters: server.IngestCounters(ls.Live.Stats()),
			ShardWrites:    make([]server.ShardWriteStat, len(ls.writes.inserts)),
		}
		for i := range rep.Ingest.ShardWrites {
			rep.Ingest.ShardWrites[i] = server.ShardWriteStat{
				Shard: i, Inserts: ls.writes.inserts[i].Load(), Deletes: ls.writes.deletes[i].Load(),
			}
		}
	}
	return rep
}

func wireRebuildStats(st MaintainStats) *server.RebuildStats {
	rs := &server.RebuildStats{
		Rebuilds:        st.Rebuilds,
		RebuildErrors:   st.RebuildErrors,
		RebuildInFlight: st.RebuildInFlight,
		LastRebuildWall: st.LastRebuildWall,
		Retunes:         st.Retunes,
		Tau:             st.Tau,
	}
	if !st.LastRebuildAt.IsZero() {
		rs.LastRebuildAt = st.LastRebuildAt.Format(time.RFC3339Nano)
	}
	return rs
}

// foldCostModels is the top-level costmodel block: a summary of the shards'
// own blocks (counters summed, ratios averaged over shards, a τ zeroed when
// shards disagree on it), nil when no shard carries one — the authoritative
// per-shard telemetry rides in the shards array.
func foldCostModels(shards []server.ShardStat) *server.CostModelStats {
	var out server.CostModelStats
	n := 0.0
	for _, st := range shards {
		cm := st.CostModel
		if cm == nil {
			continue
		}
		if n == 0 {
			out.Tau, out.RecommendedTau = cm.Tau, cm.RecommendedTau
		}
		if out.Tau != cm.Tau {
			out.Tau = 0
		}
		if out.RecommendedTau != cm.RecommendedTau {
			out.RecommendedTau = 0
		}
		out.ObservedRhoHit += cm.ObservedRhoHit
		out.ObservedRhoRefine += cm.ObservedRhoRefine
		out.PredictedRhoHit += cm.PredictedRhoHit
		out.PredictedRhoRefine += cm.PredictedRhoRefine
		out.PredictedCrefine += cm.PredictedCrefine
		out.BestCrefine += cm.BestCrefine
		out.Improvement += cm.Improvement
		out.PendingWindows += cm.PendingWindows
		out.Windows += cm.Windows
		out.Retunes += cm.Retunes
		n++
	}
	if n == 0 {
		return nil
	}
	out.ObservedRhoHit /= n
	out.ObservedRhoRefine /= n
	out.PredictedRhoHit /= n
	out.PredictedRhoRefine /= n
	out.PredictedCrefine /= n
	out.BestCrefine /= n
	out.Improvement /= n
	return &out
}
