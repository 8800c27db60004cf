package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
	"exploitbit/internal/lsh"
)

// Fixed parameters of the fixtures; README.md gives the reason for each.
const (
	defaultN    = 25000 // corpus points (150-d NUS-WIDE stand-in)
	corpusSeed  = 1     // the corpus, the query pool and the recorded log are one fixed fixture
	poolSize    = 2000  // distinct queries
	zipfS       = 1.3   // popularity skew of the log
	perturb     = 0.005 // query = data point + Gaussian noise
	historyLen  = 500   // WL: the log prefix the cache is built from
	testLogLen  = 1000  // the recorded test log; a workload's lap is a prefix of it
	searchK     = 10
	wideCands   = 5000 // fixture B candidates per query: crosses the LUT and parallel-reduce gates
	wideHistory = historyLen / 2
	compactAt   = 256 // delta points that trigger a background compaction
	liveCache   = 0.10
	insertNoise = 0.002
)

type fixtureKind int

const (
	fixFlat fixtureKind = iota // fixture A, static: Open + Engine
	fixWide                    // fixture B: Open{Shards 2, wide beta} + Engine or ShardedEngine
	fixLive                    // fixture A, live: OpenLive + ServeLive on a real http.Server
)

// workloadDef is one named workload. The lap is the unit of repetition of the
// in-process workloads: a run executes whole laps, so per-query counts are the
// same however many laps fit in the measured time.
type workloadDef struct {
	name      string
	kind      fixtureKind
	sharded   bool
	cacheFrac float64
	lap       int // ops per lap (in-process) or per pass over all clients (HTTP)
	clients   int
	inject    bool // waited I/O: a latency injector on the point file
	writes    bool // inserts and deletes beside the searches
}

var workloads = []workloadDef{
	{name: "flat_cpu", kind: fixFlat, cacheFrac: 0.25, lap: 1000, clients: 1},
	{name: "flat_io", kind: fixFlat, cacheFrac: 0.10, lap: 100, clients: 1, inject: true},
	{name: "wide_flat", kind: fixWide, cacheFrac: 0.25, lap: 400, clients: 1},
	{name: "wide_sharded", kind: fixWide, sharded: true, cacheFrac: 0.25, lap: 400, clients: 1},
	{name: "http_search", kind: fixLive, cacheFrac: liveCache, lap: 1000, clients: 2},
	{name: "http_live", kind: fixLive, cacheFrac: liveCache, lap: 1000, clients: 2, writes: true},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is what one run is parameterised by.
type config struct {
	n       int     // corpus points
	seed    int64   // drives arrival order, client assignment, and the inserted vectors
	seconds float64 // measured time per window
	scale   int     // divides laps and warm-up; 1 except in the smoke test
	dir     string  // scratch directory inside the checkout
}

func (c *config) scaled(ops int) int { return max(ops/c.scale, 10) }

// setupTimes splits one set-up into the parts a later change could move.
type setupTimes struct {
	total, gen, open, engine time.Duration
}

// fixture is everything one workload runs against.
type fixture struct {
	def  *workloadDef
	cfg  *config
	dir  string
	ds   *exploitbit.Dataset
	pool [][]float32
	test []int // recorded test log, as pool indices

	sys     *exploitbit.System
	ls      *exploitbit.LiveSystem
	eng     *exploitbit.Engine
	sharded *exploitbit.Sharded
	budget  int64
	tau     int
	times   setupTimes
	ops     uint64 // in-process operation ids, unique across a run's windows

	// HTTP fixtures.
	srv     *http.Server
	srvDone chan error
	handler *tracedHandler
	url     string
	walDir  string
}

// corpus generates the fixed fixture data: the corpus, the query pool, the
// history WL and the recorded test log. Only the order in which a run replays
// the test log depends on the run's seed, so runs with different seeds measure
// the same population and differ in schedule.
func corpus(n int) (ds *exploitbit.Dataset, pool [][]float32, history [][]float32, test []int) {
	ds = exploitbit.NUSWideLike(n, corpusSeed)
	log := exploitbit.GenLog(ds, exploitbit.LogConfig{
		PoolSize: poolSize, Length: historyLen + testLogLen, ZipfS: zipfS, Perturb: perturb, Seed: corpusSeed + 1,
	})
	history = log.Queries()[:historyLen]
	return ds, log.Pool, history, log.Seq[historyLen:]
}

// buildFixture performs one full set-up of the workload in dir and times it.
func buildFixture(def *workloadDef, cfg *config, dir string) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{def: def, cfg: cfg, dir: dir}
	start := time.Now()
	var history [][]float32
	fx.ds, fx.pool, history, fx.test = corpus(cfg.n)
	fx.times.gen = time.Since(start)
	fx.budget = int64(float64(fx.ds.Len()*fx.ds.PointSize()) * def.cacheFrac)

	var err error
	switch def.kind {
	case fixFlat:
		err = fx.openStatic(history, exploitbit.Options{Dir: dir})
	case fixWide:
		beta := min(float64(wideCands)/float64(cfg.n), 1)
		err = fx.openStatic(history[:wideHistory], exploitbit.Options{Dir: dir, Shards: 2, LSH: lsh.Params{Beta: beta}})
	case fixLive:
		err = fx.openLive(history)
	}
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("set-up of %s: %w", def.name, err)
	}
	fx.times.total = time.Since(start)
	return fx, nil
}

func (fx *fixture) openStatic(history [][]float32, opt exploitbit.Options) error {
	t := time.Now()
	sys, err := exploitbit.Open(fx.ds, history, opt)
	if err != nil {
		return err
	}
	fx.sys = sys
	fx.times.open = time.Since(t)
	fx.tau = sys.OptimalTau(fx.budget)
	t = time.Now()
	if fx.def.sharded {
		fx.sharded, err = sys.ShardedEngine(exploitbit.HCO, fx.budget, fx.tau)
	} else {
		fx.eng, err = sys.Engine(exploitbit.HCO, fx.budget, fx.tau)
	}
	fx.times.engine = time.Since(t)
	return err
}

func (fx *fixture) openLive(history [][]float32) error {
	fx.walDir = filepath.Join(fx.dir, "wal")
	t := time.Now()
	ls, err := exploitbit.OpenLive(fx.ds, history,
		exploitbit.Options{Dir: fx.dir},
		core.Config{Method: exploitbit.HCO, CacheBytes: fx.budget}, // Tau 0: OpenLive picks OptimalTau
		exploitbit.MaintainOptions{WindowSize: 1 << 20},            // no drift rebuilds: only compaction rebuilds
		exploitbit.LiveOptions{WalDir: fx.walDir, Fsync: exploitbit.FsyncAlways, CompactThreshold: fx.cfg.scaled(compactAt)})
	if err != nil {
		return err
	}
	fx.ls, fx.sys = ls, ls.Sys
	fx.times.open = time.Since(t)
	fx.tau = ls.Maintainer.Stats().Tau

	fx.handler = &tracedHandler{next: exploitbit.ServeLive(ls, exploitbit.ServeOptions{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// ebc-serve's timeouts.
	fx.srv = &http.Server{Handler: fx.handler, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	fx.srvDone = make(chan error, 1)
	go func() { fx.srvDone <- fx.srv.Serve(ln) }()
	fx.url = "http://" + ln.Addr().String()
	return nil
}

// servingEngine is the engine whose cache serves the workload's searches.
func (fx *fixture) servingEngine() *exploitbit.Engine {
	switch {
	case fx.ls != nil:
		return fx.ls.Maintainer.Engine()
	case fx.sharded != nil:
		return fx.sharded.Engine(0)
	}
	return fx.eng
}

// traceServer installs (or, with nil, removes) the tracer of the server-side
// handler wrapper; fixtures without a server have nothing to do.
func (fx *fixture) traceServer(tr *tracer) {
	if fx.handler != nil {
		fx.handler.tracer.Store(tr)
	}
}

// stopServer shuts the HTTP server down and waits for its goroutine.
func (fx *fixture) stopServer() error {
	if fx.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := fx.srv.Shutdown(ctx)
	if serveErr := <-fx.srvDone; err == nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = serveErr
	}
	fx.srv = nil
	return err
}

// closeSystem stops the server and releases the system, keeping the files
// (the WAL directory is read back by the recovery check).
func (fx *fixture) closeSystem() error {
	err := fx.stopServer()
	var cErr error
	switch {
	case fx.ls != nil:
		cErr = fx.ls.Close()
	case fx.sys != nil:
		cErr = fx.sys.Close()
	}
	fx.ls, fx.sys = nil, nil
	if err == nil {
		err = cErr
	}
	return err
}

func (fx *fixture) close() error {
	err := fx.closeSystem()
	if rmErr := os.RemoveAll(fx.dir); err == nil {
		err = rmErr
	}
	return err
}

// stream is the workload's lap in this run's arrival order.
func (fx *fixture) stream() []int {
	lap := append([]int(nil), fx.test[:min(fx.cfg.scaled(fx.def.lap), len(fx.test))]...)
	rand.New(rand.NewSource(fx.cfg.seed)).Shuffle(len(lap), func(i, j int) { lap[i], lap[j] = lap[j], lap[i] })
	return lap
}
