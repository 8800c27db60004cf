// ebc-serve runs the cached kNN engine as an HTTP service over an EBDS
// dataset, with optional self-maintenance (automatic cache rebuilds under
// workload drift). Example:
//
//	ebc-gen -preset nuswide -n 20000 -o nw.ebds
//	ebc-serve -data nw.ebds -method HC-O -cache 16MiB -addr :8080
//	curl -s localhost:8080/search -d '{"vector":[...150 floats...],"k":10}'
//	curl -s localhost:8080/metrics
//
// The server is production-shaped: read/write/idle timeouts and a header
// cap guard the listener, an admission gate sheds load with 503 once
// -max-inflight searches are in flight, and SIGINT/SIGTERM drain in-flight
// requests (bounded by -drain-timeout) before exiting 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"exploitbit"
	"exploitbit/internal/cliutil"
	"exploitbit/internal/core"
)

func main() {
	var (
		data     = flag.String("data", "", "EBDS dataset file (required)")
		logFile  = flag.String("log", "", "EBQL query log for cache construction (default: generated)")
		method   = flag.String("method", "HC-O", "caching method")
		cacheSz  = flag.String("cache", "16MiB", "cache size")
		k        = flag.Int("k", 10, "profiling k")
		addr     = flag.String("addr", ":8080", "listen address")
		maintain = flag.Bool("maintain", false, "enable automatic cache rebuilds under workload drift")

		adaptiveTau     = flag.Bool("adaptive-tau", false, "with -maintain: arm the cost-model drift watchdog, re-tuning tau when the model predicts a cheaper code length for the live workload")
		retuneThreshold = flag.Float64("retune-threshold", 0.10, "minimum predicted relative C_refine improvement before a window counts toward a retune")
		retuneWindows   = flag.Int("retune-windows", 3, "consecutive over-threshold windows required before a retune rebuild fires")

		shards      = flag.Int("shards", 1, "serve through this many scatter-gather shard units (1 = unsharded)")
		shardLayout = flag.String("shard-layout", string(exploitbit.RoundRobin), "shard partitioning: round-robin or clustered")

		walDir           = flag.String("wal-dir", "", "enable live ingest: write-ahead log directory for POST /insert and /delete (replayed at startup; implies -maintain when unsharded)")
		walFsync         = flag.String("wal-fsync", "always", "WAL durability: always (fsync per record) or none")
		compactThreshold = flag.Int("compact-threshold", 4096, "delta points that trigger background compaction into the point file (unsharded live ingest only)")

		ioRetries      = flag.Int("io-retries", 3, "transient storage read failures retried per page before the error surfaces (0 = no retry)")
		ioRetryBackoff = flag.Duration("io-retry-backoff", time.Millisecond, "initial retry backoff, doubled per attempt (jittered, capped at 100x)")
		degradedOK     = flag.Bool("degraded-ok", false, "sharded only: serve around a permanently failed shard (responses flagged degraded) instead of failing queries that need it")

		maxInFlight  = flag.Int("max-inflight", 64, "admission limit: concurrent searches before 503")
		maxK         = flag.Int("max-k", 1000, "largest k accepted by /search")
		maxBatch     = flag.Int("max-batch", 64, "largest vector count accepted by /search/batch")
		readTimeout  = flag.Duration("read-timeout", 10*time.Second, "http.Server ReadTimeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
		maxHeader    = flag.Int("max-header-bytes", 64<<10, "http.Server MaxHeaderBytes")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		pprofAddr    = flag.String("pprof-addr", "", "listen address for net/http/pprof (e.g. localhost:6060); disabled when empty")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "ebc-serve: -data is required")
		os.Exit(2)
	}

	ds, err := exploitbit.LoadDataset(*data)
	if err != nil {
		log.Fatal("ebc-serve: ", err)
	}
	cs, err := cliutil.ParseBytes(*cacheSz)
	if err != nil {
		log.Fatal("ebc-serve: bad -cache: ", err)
	}

	var wl [][]float32
	if *logFile != "" {
		qlog, err := exploitbit.LoadLog(*logFile)
		if err != nil {
			log.Fatal("ebc-serve: ", err)
		}
		wl = qlog.Queries()
	} else {
		qlog := exploitbit.GenLog(ds, exploitbit.LogConfig{
			PoolSize: 500, Length: 2000, ZipfS: 1.3, Perturb: 0.005, Seed: 7,
		})
		wl = qlog.Queries()
	}

	opt := exploitbit.Options{
		WorkloadK: *k, Shards: *shards, ShardLayout: exploitbit.ShardLayout(*shardLayout),
	}
	rp := exploitbit.RetryPolicy{}
	if *ioRetries > 0 {
		rp = exploitbit.RetryPolicy{
			MaxRetries: *ioRetries,
			Backoff:    *ioRetryBackoff,
			MaxBackoff: 100 * *ioRetryBackoff,
		}
	}
	// Mode selection is a straight line: live (a WAL directory) implies
	// maintained, maintained serves through the maintainer over -shards units,
	// and anything else is a static engine (flat or sharded). Warnings are
	// derived from the mode actually in effect.
	live := *walDir != ""
	maintained := *maintain || live
	if live && !*maintain {
		log.Printf("ebc-serve: -wal-dir implies -maintain (writes are served over the maintainer)")
	}
	if live && *shards > 1 {
		log.Printf("ebc-serve: sharded live ingest serves writes and merged searches, but background compaction is disabled (restart recovery folds the WAL instead)")
	}
	if *adaptiveTau && !maintained {
		log.Printf("ebc-serve: -adaptive-tau has no effect without -maintain")
	}
	if *degradedOK && *shards <= 1 && !maintained {
		log.Printf("ebc-serve: -degraded-ok has no effect on a static unsharded engine")
	}
	sopt := exploitbit.ServeOptions{MaxK: *maxK, MaxInFlight: *maxInFlight, MaxBatch: *maxBatch}
	mopt := exploitbit.MaintainOptions{
		AdaptiveTau:     *adaptiveTau,
		RetuneThreshold: *retuneThreshold,
		RetuneWindows:   *retuneWindows,
	}
	cfg := core.Config{Method: exploitbit.Method(*method), CacheBytes: cs, SmoothEps: 0.01}

	var (
		sys     *exploitbit.System
		sharded *exploitbit.Sharded // the serving router, nil on a static flat engine
		handler http.Handler
		drain   func() // closes what must outlive the listener's drain
	)
	if live {
		fsync, err := exploitbit.ParseFsyncMode(*walFsync)
		if err != nil {
			log.Fatal("ebc-serve: bad -wal-fsync: ", err)
		}
		log.Printf("ebc-serve: dataset %q (%d x %d-d); recovering WAL %q, building index and profiling %d workload queries…",
			ds.Name, ds.Len(), ds.Dim, *walDir, len(wl))
		// Tau 0: OpenLive tunes the code length over the folded dataset.
		ls, err := exploitbit.OpenLive(ds, wl, opt, cfg, mopt, exploitbit.LiveOptions{
			WalDir:           *walDir,
			Fsync:            fsync,
			CompactThreshold: *compactThreshold,
		})
		if err != nil {
			log.Fatal("ebc-serve: ", err)
		}
		if rec := ls.Recovery; rec.Records > 0 || rec.CheckpointPoints > 0 {
			log.Printf("ebc-serve: recovered %d checkpoint points + %d WAL records (%d tombstones, %d bytes torn tail truncated)",
				rec.CheckpointPoints, rec.Records, len(rec.Tombs), rec.TruncatedBytes)
		}
		sys, sharded, cfg.Tau = ls.Sys, ls.Maintainer.Sharded(), ls.Maintainer.Stats().Tau
		drain = func() { ls.Close() }
		handler = exploitbit.ServeLive(ls, sopt)
	} else {
		log.Printf("ebc-serve: dataset %q (%d x %d-d); building index and profiling %d workload queries…",
			ds.Name, ds.Len(), ds.Dim, len(wl))
		var err error
		if sys, err = exploitbit.Open(ds, wl, opt); err != nil {
			log.Fatal("ebc-serve: ", err)
		}
		drain = func() { sys.Close() }
		cfg.Tau = sys.OptimalTau(cs)
		switch {
		case maintained:
			m, err := sys.Maintained(cfg, mopt)
			if err != nil {
				log.Fatal("ebc-serve: ", err)
			}
			sharded = m.Sharded()
			drain = func() { m.Close(); sys.Close() }
			handler = exploitbit.ServeMaintained(m, sopt)
		case *shards > 1:
			if sharded, err = sys.ShardedEngineWith(cfg); err != nil {
				log.Fatal("ebc-serve: ", err)
			}
			handler = exploitbit.ServeSharded(sharded, sopt)
		default:
			eng, err := sys.EngineWith(cfg)
			if err != nil {
				log.Fatal("ebc-serve: ", err)
			}
			handler = exploitbit.Serve(eng, sopt)
		}
	}
	sys.SetRetry(rp)
	if sharded != nil {
		sharded.SetDegradedOK(*degradedOK)
	}

	srv := &http.Server{
		Addr:           *addr,
		Handler:        handler,
		ReadTimeout:    *readTimeout,
		WriteTimeout:   *writeTimeout,
		IdleTimeout:    *idleTimeout,
		MaxHeaderBytes: *maxHeader,
	}

	if *pprofAddr != "" {
		// Profiling stays off the serving listener: its own mux on its own
		// port, opt-in only, so the debug surface is never exposed by default.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("ebc-serve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("ebc-serve: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	mode := "static"
	if live {
		mode = fmt.Sprintf("live ingest on %q", *walDir)
	} else if maintained {
		mode = "maintained"
	}
	log.Printf("ebc-serve: %s cache, %s budget, tau=%d, %d shard(s), %s; listening on %s (max %d in-flight requests)",
		*method, *cacheSz, cfg.Tau, *shards, mode, *addr, *maxInFlight)

	select {
	case err := <-errc:
		// The listener died on its own (port in use, …): nothing to drain.
		log.Fatal("ebc-serve: ", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills us
		log.Printf("ebc-serve: signal received; draining in-flight requests (budget %s)", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("ebc-serve: shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("ebc-serve: serve: %v", err)
		}
		// After the listener has drained: no new searches can arrive, so no
		// new rebuild can launch, and Close waits out any in flight.
		drain()
		log.Printf("ebc-serve: drained; exiting")
	}
}
