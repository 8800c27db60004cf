package exploitbit

import (
	"context"
	"net/http"
	"time"

	"exploitbit/internal/core"
	"exploitbit/internal/costmodel"
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

// searcher is what every served engine type — Engine, Sharded, Maintainer,
// and the live overlay in front of a Maintainer — gives the HTTP handler.
type searcher interface {
	SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *core.Merge) ([]int, QueryStats, error)
	SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []QueryStats, error)
	Dim() int
	DiskStats() disk.Stats
}

// engineSearcher adapts a searcher to the handler's wire vocabulary. The
// batch half enables POST /search/batch: every searcher coalesces the batch's
// refinement I/O so overlapping queries share page reads.
type engineSearcher struct{ s searcher }

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

// wireIOStats adapts a disk-level stats snapshot source to the handler's
// /metrics io block.
func wireIOStats(fn func() disk.Stats) func() server.IOStats {
	return func() server.IOStats {
		ds := fn()
		return server.IOStats{
			Retries:         ds.Retries,
			TransientErrors: ds.TransientErrors,
			PermanentErrors: ds.PermanentErrors,
		}
	}
}

func (es engineSearcher) Search(ctx context.Context, q []float32, k int) ([]int, server.Stats, error) {
	ids, st, err := es.s.SearchCtx(ctx, q, k, nil, nil)
	return ids, wireStats(st), err
}

func (es engineSearcher) SearchBatch(ctx context.Context, qs [][]float32, k int) ([][]int, []server.Stats, error) {
	ids, sts, err := es.s.SearchBatch(ctx, qs, k)
	if err != nil {
		return nil, nil, err
	}
	out := make([]server.Stats, len(sts))
	for i, st := range sts {
		out[i] = wireStats(st)
	}
	return ids, out, nil
}

// newHandler is the one place a searcher is wired to the HTTP handler: POST
// /search, POST /search/batch, GET /stats, GET /metrics, GET /healthz, the io
// block, and — when the searcher has them — the "shards" array (shards) and
// the rebuild, per-shard maintain and cost-model telemetry (m).
func newHandler(s searcher, shards func() []ShardAggregate, m *Maintainer, opt ServeOptions) *server.Handler {
	h := server.New(engineSearcher{s}, server.Config{
		Dim: s.Dim(), MaxK: opt.MaxK, MaxInFlight: opt.MaxInFlight, MaxBatch: opt.MaxBatch,
	})
	h.SetIOStats(wireIOStats(s.DiskStats))
	if shards != nil {
		h.SetShardStats(wireShardStats(shards, m))
	}
	if m != nil {
		h.SetRebuildStats(func() server.RebuildStats { return wireRebuildStats(m.Stats()) })
		if cms := m.CostModels(); cms[0] != nil {
			// Top-level block: a cross-shard summary (counters summed, ratios
			// averaged over shards, τ zeroed when shards disagree); the
			// authoritative per-shard telemetry rides in the shards array.
			h.SetCostModelStats(func() server.CostModelStats {
				return mergeShardCostModels(m.CostModels())
			})
		}
	}
	return h
}

// Serve returns an http.Handler exposing the engine: POST /search, POST
// /search/batch, GET /stats, GET /metrics, GET /healthz. Safe for concurrent
// requests; the request context is plumbed into the search, so a disconnected
// client abandons its query before refinement I/O.
func Serve(eng *Engine, opt ServeOptions) http.Handler {
	return newHandler(eng, nil, nil, opt)
}

// ServeSharded is Serve over a scatter-gather sharded engine: results are
// bit-identical to the unsharded engine, and /stats and /metrics carry a
// "shards" array with each shard's load, cache fill and I/O.
func ServeSharded(se *Sharded, opt ServeOptions) http.Handler {
	return newHandler(se, se.ShardAggregates, nil, opt)
}

// ServeMaintained is Serve over a self-maintaining searcher: each shard unit
// (one, when unsharded) rebuilds its cache in the background under workload
// drift while requests flow. /stats carries the aggregate "maintain" object
// and every "shards" entry its own rebuild activity and, when adaptive,
// cost-model telemetry.
func ServeMaintained(m *Maintainer, opt ServeOptions) http.Handler {
	return newHandler(m, m.ShardAggregates, m, opt)
}

func wireRebuildStats(st MaintainStats) server.RebuildStats {
	rs := server.RebuildStats{
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

// wireCostModel adapts a drift-watchdog snapshot to the /metrics block.
func wireCostModel(s costmodel.MonitorSnapshot) server.CostModelStats {
	return server.CostModelStats{
		Tau:                s.Tau,
		RecommendedTau:     s.RecommendedTau,
		ObservedRhoHit:     s.ObservedRhoHit,
		ObservedRhoRefine:  s.ObservedRhoRefine,
		PredictedRhoHit:    s.PredictedRhoHit,
		PredictedRhoRefine: s.PredictedRhoRefine,
		PredictedCrefine:   s.PredictedCrefine,
		BestCrefine:        s.BestCrefine,
		Improvement:        s.Improvement,
		PendingWindows:     s.PendingWindows,
		Windows:            s.Windows,
		Retunes:            s.Retunes,
	}
}

// wireShardStats snapshots the router's per-shard blocks, joined — when a
// maintainer serves — with each shard's rebuild activity and drift-watchdog
// telemetry (both positional with shards).
func wireShardStats(shards func() []ShardAggregate, m *Maintainer) func() []server.ShardStat {
	return func() []server.ShardStat {
		aggs := shards()
		var ms []MaintainStats
		var cms []*costmodel.MonitorSnapshot
		if m != nil {
			ms, cms = m.ShardStats(), m.CostModels()
		}
		out := make([]server.ShardStat, len(aggs))
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
			if i < len(ms) {
				rs := wireRebuildStats(ms[i])
				st.Maintain = &rs
			}
			if i < len(cms) && cms[i] != nil {
				cm := wireCostModel(*cms[i])
				st.CostModel = &cm
			}
			out[i] = st
		}
		return out
	}
}

// mergeShardCostModels folds per-shard watchdog snapshots into one summary
// block for the top-level /metrics costmodel object.
func mergeShardCostModels(cms []*costmodel.MonitorSnapshot) server.CostModelStats {
	var out server.CostModelStats
	n := 0
	for _, s := range cms {
		if s == nil {
			continue
		}
		cm := wireCostModel(*s)
		if n == 0 {
			out.Tau = cm.Tau
			out.RecommendedTau = cm.RecommendedTau
		} else {
			if out.Tau != cm.Tau {
				out.Tau = 0
			}
			if out.RecommendedTau != cm.RecommendedTau {
				out.RecommendedTau = 0
			}
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
	if n > 1 {
		f := float64(n)
		out.ObservedRhoHit /= f
		out.ObservedRhoRefine /= f
		out.PredictedRhoHit /= f
		out.PredictedRhoRefine /= f
		out.PredictedCrefine /= f
		out.BestCrefine /= f
		out.Improvement /= f
	}
	return out
}
