package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"exploitbit/internal/costmodel"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
)

// Maintainer implements Section 3.5's histogram maintenance: "we expect that
// the distribution of queries in the workload does not change rapidly …
// perform updates and rebuild the cache periodically". It always serves
// through the router (ShardedEngine) over N ≥ 1 units and keeps one slot of
// maintenance state per unit: a sliding window of the queries the unit
// served, a drift detector over the slice of their statistics it produced,
// and — when adaptive — its own cost-model watchdog. A slot whose hit ratio
// degrades against its post-build baseline rebuilds *only its own* cache
// (HFF content, F′, Algorithm 2) from its window; flat maintained serving is
// the N = 1 case, one unit over the system's own point file (SingleShard).
//
// Rebuilds are non-blocking: detection only *launches* a rebuild, which runs
// in a background goroutine and RCU-swaps the unit's engine when done —
// readers never wait for writers, searches in flight keep the engines they
// snapshotted, every other unit keeps serving untouched, and a failed rebuild
// is recorded while the old engine keeps serving. Each slot has one rebuild
// queue (a launch CAS): drift, retune, quarantine and compaction rebuilds all
// contend on it, so at most one is queued or running per unit.
//
// A replacement engine profiles the slot's window through the unit-filtered
// candidate generator at the constructor's k and builds its own unit-local
// histogram over the unit's proportional slice of the cache budget. Its
// bounds stay correct and conservative for every query; bit-identity with a
// flat engine built from the same profile is pinned for N = 1 and for
// freshly constructed routers of any N, not across divergent drift histories.
type Maintainer struct {
	cfg Config
	opt MaintainOptions
	k   int // profiling depth of every rebuild and evaluation (Profile.K)

	// se is the serving router: Phase-1 generator, id maps, point horizon and
	// unit engines behind one pointer. Unit rebuilds swap an engine inside
	// it; a live-ingest compaction publishes a whole new router, so a search
	// can never pair a post-fold candidate list with a pre-fold engine.
	se atomic.Pointer[ShardedEngine]

	// initialWL is the workload the maintainer was constructed from, the
	// profiling fallback for a compaction that lands before the drift window
	// has recorded anything.
	initialWL [][]float32

	// build constructs unit s's replacement engine over router se from a
	// window of queries at a code length. A field so tests can inject
	// failures; the default is buildUnit.
	build func(se *ShardedEngine, s int, wl [][]float32, tau int) (*Engine, error)

	slots []*maintSlot
	sink  shardSink // m.record, bound once so searches do not allocate it

	// lifeMu guards closed and the wg.Add/Wait ordering: a launch must either
	// be observed by Close's Wait or be refused, never race it.
	lifeMu sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// maintSlot is one unit's maintenance state.
type maintSlot struct {
	// mu guards the drift window and hit-ratio bookkeeping only; it is held
	// for a few counter updates per query, never across a search or a build.
	mu    sync.Mutex
	drift driftState
	adapt adaptWindow

	// rebuilding is the launch guard (one rebuild queued or running per
	// unit); rebuildMu serializes rebuild *execution*, never searches.
	rebuilding  atomic.Bool
	rebuildMu   sync.Mutex
	rebuilds    atomic.Int64
	rebuildErrs atomic.Int64
	lastWallNs  atomic.Int64 // build wall-clock of the last installed rebuild
	lastAtNs    atomic.Int64 // its completion time (UnixNano); 0 until one lands
	quarantines atomic.Int64 // quarantine-triggered rebuild launches

	// tau is the unit's serving code length: drift, quarantine and compaction
	// rebuilds preserve it, only a watchdog retune moves it — units drift and
	// retune independently. monitor is the Section 4 watchdog (nil unless
	// AdaptiveTau); one window evaluation runs at a time (evaluating CAS), a
	// slow re-profile skips windows instead of piling up goroutines.
	tau        atomic.Int64
	retunes    atomic.Int64
	monitor    *costmodel.Monitor
	evaluating atomic.Bool
}

// adaptWindow accumulates one watchdog window's candidate-weighted observed
// ratios. The owner provides the locking.
type adaptWindow struct {
	hits, cands, remaining int64
	n, size                int
}

// add folds one served query. When the window completes it returns the
// observed (ρ_hit, ρ_refine) and resets; a window that saw no candidates is
// discarded (nothing to compare the model against).
func (w *adaptWindow) add(st QueryStats) (float64, float64, bool) {
	if w.size <= 0 {
		return 0, 0, false
	}
	w.hits += int64(st.Hits)
	w.cands += int64(st.Candidates)
	w.remaining += int64(st.Remaining)
	w.n++
	if w.n < w.size {
		return 0, 0, false
	}
	hits, cands, rem := w.hits, w.cands, w.remaining
	w.reset()
	if cands == 0 {
		return 0, 0, false
	}
	return float64(hits) / float64(cands), float64(rem) / float64(cands), true
}

func (w *adaptWindow) reset() {
	w.hits, w.cands, w.remaining = 0, 0, 0
	w.n = 0
}

// driftState is the drift detector of one slot: the sliding query window and
// the candidate-weighted hit-ratio bookkeeping. The owner provides the
// locking (all methods assume the caller holds the slot's mutex).
type driftState struct {
	opt MaintainOptions

	window [][]float32 // ring of recent queries
	nextW  int
	filled bool

	// Hit-ratio bookkeeping (candidate-weighted, like ρ_hit).
	baseHits, baseCands     int64 // first window after a rebuild
	recentHits, recentCands int64 // sliding estimate since baseline froze
	sinceRebuild            int

	// pendingRebuild counts down after drift detection. Detection fires
	// while the window is still dominated by pre-drift queries (the recent
	// estimate degrades within a fraction of a window), so snapshotting
	// immediately would profile the *old* regime. Waiting one full window
	// guarantees the rebuild sees pure post-drift traffic — one rebuild then
	// lands on the new regime instead of converging over several.
	pendingRebuild int
}

func newDriftState(opt MaintainOptions) driftState {
	return driftState{opt: opt, window: make([][]float32, opt.WindowSize)}
}

// record folds one served query into the window. When drift is detected it
// calls tryArm (the owner's rebuild-launch CAS) and, one full window later,
// returns the rebuild workload snapshot; otherwise it returns nil.
func (d *driftState) record(q []float32, st QueryStats, tryArm func() bool) [][]float32 {
	// Record the query (copying: callers may reuse buffers).
	d.window[d.nextW] = append([]float32(nil), q...)
	d.nextW = (d.nextW + 1) % len(d.window)
	if d.nextW == 0 {
		d.filled = true
	}
	d.sinceRebuild++

	// A detected drift waits out one window before snapshotting, so the
	// rebuild profiles only queries issued after the regime change.
	if d.pendingRebuild > 0 {
		d.pendingRebuild--
		if d.pendingRebuild == 0 {
			return d.snapshot()
		}
		return nil
	}

	// Baseline: the first window after a (re)build defines "healthy".
	if d.sinceRebuild <= d.opt.WindowSize {
		d.baseHits += int64(st.Hits)
		d.baseCands += int64(st.Candidates)
		return nil
	}
	// Exponentially decayed recent window keeps the estimate moving.
	d.recentHits += int64(st.Hits)
	d.recentCands += int64(st.Candidates)
	if d.recentCands > d.baseCands && d.baseCands > 0 {
		d.recentHits /= 2
		d.recentCands /= 2
	}

	if d.sinceRebuild >= d.opt.MinQueriesBetweenRebuilds+d.opt.WindowSize &&
		d.baseCands > 0 && d.recentCands > 0 {
		base := float64(d.baseHits) / float64(d.baseCands)
		recent := float64(d.recentHits) / float64(d.recentCands)
		if recent < base*d.opt.DegradeFactor && tryArm() {
			d.pendingRebuild = len(d.window)
		}
	}
	return nil
}

// resetAfterInstall restarts the baseline after a rebuild swaps in.
func (d *driftState) resetAfterInstall() {
	d.sinceRebuild = 0
	d.pendingRebuild = 0
	d.baseHits, d.baseCands = 0, 0
	d.recentHits, d.recentCands = 0, 0
}

// snapshot copies out the recorded window, oldest-first fill order.
func (d *driftState) snapshot() [][]float32 {
	src := d.window[:d.nextW]
	if d.filled {
		src = d.window
	}
	out := make([][]float32, 0, len(src))
	for _, q := range src {
		if q != nil {
			out = append(out, q)
		}
	}
	return out
}

// MaintainOptions tunes the drift detector.
type MaintainOptions struct {
	// WindowSize is the number of recent queries kept for rebuilds and used
	// as the baseline/measurement period (default 256).
	WindowSize int
	// DegradeFactor triggers a rebuild when the recent hit ratio falls
	// below DegradeFactor × the post-build baseline (default 0.8).
	DegradeFactor float64
	// MinQueriesBetweenRebuilds prevents thrashing (default WindowSize).
	MinQueriesBetweenRebuilds int
	// RebuildGate, when non-nil, parks every background rebuild on a
	// channel receive before it starts building — a test seam for holding a
	// rebuild in flight while exercising searches, shutdown and /stats
	// against it. Production configurations leave it nil.
	RebuildGate chan struct{}

	// AdaptiveTau arms the Section 4 drift watchdog: every WindowSize served
	// queries the maintainer re-profiles the window off the search path,
	// feeds the observed ρ_hit/ρ_refine and the model's predictions for the
	// serving τ into a costmodel.Monitor, and — when the predicted C_refine
	// improvement of the recommended τ stays above RetuneThreshold for
	// RetuneWindows consecutive windows — launches a retune rebuild at that
	// τ through the same RCU machinery as drift rebuilds. Off by default:
	// the engine then behaves bit-identically to a non-adaptive one.
	AdaptiveTau bool
	// RetuneThreshold is the minimum predicted relative C_refine improvement
	// that counts a window as drifted (default 0.10).
	RetuneThreshold float64
	// RetuneWindows is how many consecutive over-threshold windows must
	// accumulate before a retune fires (default 3).
	RetuneWindows int
}

func (o MaintainOptions) withDefaults() MaintainOptions {
	if o.WindowSize < 8 {
		o.WindowSize = 256
	}
	if o.DegradeFactor <= 0 || o.DegradeFactor >= 1 {
		o.DegradeFactor = 0.8
	}
	if o.MinQueriesBetweenRebuilds < 1 {
		o.MinQueriesBetweenRebuilds = o.WindowSize
	}
	return o
}

// MaintainStats is a snapshot of one slot's rebuild activity, or of all
// slots together (counts sum, flags OR, the last-rebuild pair is the most
// recent swap anywhere).
type MaintainStats struct {
	Rebuilds        int  // completed rebuilds that swapped an engine in
	RebuildErrors   int  // rebuild attempts that failed (old engine kept)
	RebuildInFlight bool // a background rebuild is queued or running

	// LastRebuildWall is the build wall-clock of the most recent successful
	// rebuild (profile + engine construction, excluding any gate wait);
	// LastRebuildAt is when it swapped in. Both are zero until the first
	// rebuild lands.
	LastRebuildWall time.Duration
	LastRebuildAt   time.Time

	// Quarantines counts the quarantine-triggered rebuilds launched;
	// Quarantined is the unit's current fault state.
	Quarantines int
	Quarantined bool

	// Retunes counts watchdog-triggered τ retune rebuilds that swapped in;
	// Tau is the serving code length (for the all-slot aggregate, the units'
	// τ when they all agree and 0 when they have retuned apart).
	Retunes int
	Tau     int
}

// NewMaintainer builds the router over the given units (SingleShard for
// N = 1) from an already built profile and arms one slot per unit. Rebuilds,
// watchdog evaluations, quarantine recoveries and compactions all profile at
// prof.K — never at a client's k.
func NewMaintainer(specs []ShardSpec, owner, local []int32, prof *Profile, cands CandidateFunc, cfg Config, opt MaintainOptions) (*Maintainer, error) {
	opt = opt.withDefaults()
	se, err := NewShardedEngine(specs, owner, local, prof, cands, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: initial maintained engine: %w", err)
	}
	m := &Maintainer{cfg: cfg, opt: opt, k: prof.K, initialWL: prof.WL}
	m.se.Store(se)
	m.build = m.buildUnit
	m.sink = m.record
	tau := cfg.withDefaults().Tau
	for range specs {
		slot := &maintSlot{drift: newDriftState(opt)}
		slot.tau.Store(int64(tau))
		if opt.AdaptiveTau {
			slot.adapt.size = opt.WindowSize
			slot.monitor = costmodel.NewMonitor(tau, costmodel.MonitorConfig{
				Threshold: opt.RetuneThreshold,
				Windows:   opt.RetuneWindows,
			})
		}
		m.slots = append(m.slots, slot)
	}
	return m, nil
}

// buildUnit is the default rebuild: profile the window against unit s's
// filtered candidate generator and construct a standalone engine over the
// unit's point file under its proportional share of the cache budget. The
// replacement builds its own unit-local histogram — the shared model
// describes the workload the system started with, while the rebuild's whole
// point is to follow what this unit serves now — so its bucket lookups expect
// local ids (globalIDs stays nil, unlike the engines NewShardedEngine builds).
func (m *Maintainer) buildUnit(se *ShardedEngine, s int, wl [][]float32, tau int) (*Engine, error) {
	u := se.units[s]
	scands := se.ShardCandidates(s)
	prof := BuildProfile(u.DS, scands, wl, m.k)
	cfg := m.cfg
	cfg.Tau = tau
	cfg.CacheBytes = m.unitBudget(se, s)
	return NewEngine(u.PF, prof, scands, cfg)
}

// unitBudget is unit s's proportional slice of the cache budget.
func (m *Maintainer) unitBudget(se *ShardedEngine, s int) int64 {
	return m.cfg.CacheBytes * int64(se.units[s].DS.Len()) / int64(len(se.owner))
}

// slotTau returns unit s's serving code length.
func (m *Maintainer) slotTau(s int) int { return int(m.slots[s].tau.Load()) }

// Sharded returns the serving router (for stats wiring and inspection). A
// live-ingest compaction replaces it; callers that outlive one should ask
// again rather than hold the pointer.
func (m *Maintainer) Sharded() *ShardedEngine { return m.se.Load() }

// Engine returns unit 0's currently serving engine — the whole cache when
// N = 1; for N > 1 use Sharded().Engine(s).
func (m *Maintainer) Engine() *Engine { return m.se.Load().Engine(0) }

// Dim returns the dataset dimensionality.
func (m *Maintainer) Dim() int { return m.se.Load().Dim() }

// DiskStats sums device counters across every unit's point file.
func (m *Maintainer) DiskStats() disk.Stats { return m.se.Load().DiskStats() }

// ShardAggregates snapshots every unit's accumulated statistics from the
// serving router.
func (m *Maintainer) ShardAggregates() []ShardAggregate { return m.se.Load().ShardAggregates() }

// Search serves one query; see SearchCtx.
func (m *Maintainer) Search(q []float32, k int) ([]int, QueryStats, error) {
	return m.SearchCtx(context.Background(), q, k, nil, nil)
}

// SearchInto is Search appending result identifiers to dst.
func (m *Maintainer) SearchInto(q []float32, k int, dst []int) ([]int, QueryStats, error) {
	return m.SearchCtx(context.Background(), q, k, dst, nil)
}

// SearchCtx serves one query through the router (see ShardedEngine.SearchCtx
// for ctx and the live-ingest overlay mg) and folds the per-unit statistics
// into each engaged slot's windows, launching that slot's background rebuild
// when its window trips. Safe for concurrent use: searches never wait on a
// rebuild. Abandoned queries never enter any window — a burst of
// cancellations must not masquerade as a workload shift. Windows count base
// candidates only: delta extras of a merged search are always hits and belong
// to no unit yet.
func (m *Maintainer) SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *Merge) ([]int, QueryStats, error) {
	return m.se.Load().search(ctx, q, k, dst, mg, m.sink)
}

// SearchBatch runs the batch through the router's coalesced refinement and
// applies SearchCtx's maintenance semantics per batch member (the launch CAS
// starts at most one rebuild however many members trip the window). The whole
// batch runs on one router and under one overlay mg.
func (m *Maintainer) SearchBatch(ctx context.Context, qs [][]float32, k int, mg *Merge) ([][]int, []QueryStats, error) {
	return m.se.Load().searchBatch(ctx, qs, k, mg, m.sink)
}

// record is the router's statistics sink: one served query's per-unit
// statistics feed the drift detector — and, when adaptive, the watchdog
// window — of every slot that served it, and a degraded query launches the
// quarantine rebuild of each unit it was served around.
func (m *Maintainer) record(q []float32, st *QueryStats, per []QueryStats) {
	if st.Degraded {
		m.noteFailures(q, st.FailedShards)
	}
	for s, ps := range per {
		if ps.Candidates == 0 && ps.Fetched == 0 {
			continue // the query never touched this unit
		}
		slot := m.slots[s]
		slot.mu.Lock()
		// Detection arms a one-window countdown (see driftState), then hands
		// back the pure post-drift window to rebuild from.
		rebuildWL := slot.drift.record(q, ps, func() bool { return slot.rebuilding.CompareAndSwap(false, true) })
		var evalWL [][]float32
		var obsHit, obsRefine float64
		if slot.monitor != nil {
			var done bool
			if obsHit, obsRefine, done = slot.adapt.add(ps); done {
				evalWL = slot.drift.snapshot()
			}
		}
		slot.mu.Unlock()
		if rebuildWL != nil {
			m.launchWindowRebuild(s, rebuildWL, m.slotTau(s), false)
		}
		if evalWL != nil {
			m.launchEvaluate(s, obsHit, obsRefine, evalWL)
		}
	}
}

// noteFailures reacts to a degraded query: every unit it was served around
// gets a quarantine rebuild launched (at most one in flight per unit — the
// launch CAS absorbs the storm of degraded queries that follow a failure).
// The rebuild runs from the slot's drift window, falling back to the failing
// query itself when the window is empty, and clears the quarantine only if it
// succeeds; a failed rebuild leaves the unit quarantined and the next
// degraded query tries again.
func (m *Maintainer) noteFailures(q []float32, failed []int) {
	se := m.se.Load()
	for _, s := range failed {
		if !se.Quarantined(s) {
			continue // already rebuilt by the time we got here
		}
		slot := m.slots[s]
		if !slot.rebuilding.CompareAndSwap(false, true) {
			continue // rebuild already in flight
		}
		wl := m.window(s)
		if len(wl) == 0 {
			wl = [][]float32{append([]float32(nil), q...)}
		}
		slot.quarantines.Add(1)
		m.launchWindowRebuild(s, wl, m.slotTau(s), false)
	}
}

// window snapshots slot s's drift window.
func (m *Maintainer) window(s int) [][]float32 {
	slot := m.slots[s]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.drift.snapshot()
}

// launchEvaluate runs one watchdog window evaluation of slot s in the
// background: it re-profiles the window against the unit-filtered candidate
// generator (Phase 1 only — the serving engines and their stats are
// untouched, so a never-retuning adaptive maintainer stays bit-identical to a
// non-adaptive one), asks the slot's monitor to compare observed ratios
// against the model, and on a retune decision launches a rebuild at the
// recommended τ through the ordinary launch CAS. At most one evaluation runs
// per slot; windows that complete while one is in flight are skipped, not
// queued.
func (m *Maintainer) launchEvaluate(s int, obsHit, obsRefine float64, wl [][]float32) {
	slot := m.slots[s]
	if !slot.evaluating.CompareAndSwap(false, true) {
		return
	}
	m.lifeMu.Lock()
	if m.closed {
		m.lifeMu.Unlock()
		slot.evaluating.Store(false)
		return
	}
	m.wg.Add(1)
	m.lifeMu.Unlock()
	go func() {
		defer m.wg.Done()
		defer slot.evaluating.Store(false)
		se := m.se.Load()
		ds := se.units[s].DS
		prof := BuildProfile(ds, se.ShardCandidates(s), wl, m.k)
		d := slot.monitor.Observe(obsHit, obsRefine, prof.CostInputs(m.unitBudget(se, s)))
		if d.Retune && slot.rebuilding.CompareAndSwap(false, true) {
			m.launchWindowRebuild(s, wl, d.Tau, true)
		}
	}()
}

// CostModels snapshots every adaptive slot's watchdog telemetry; entries are
// nil for slots without a monitor (a non-adaptive maintainer returns a slice
// of nils).
func (m *Maintainer) CostModels() []*costmodel.MonitorSnapshot {
	out := make([]*costmodel.MonitorSnapshot, len(m.slots))
	for s, slot := range m.slots {
		if slot.monitor != nil {
			snap := slot.monitor.Snapshot()
			out[s] = &snap
		}
	}
	return out
}

// rebuildFunc produces one rebuild's outcome: the engine to install into
// unit s of router se. Window rebuilds return the serving router; a
// compaction returns the refolded one, which install then publishes.
type rebuildFunc func() (se *ShardedEngine, eng *Engine, err error)

// windowRebuild is the rebuildFunc of every trigger but compaction: unit s
// rebuilt from wl at code length tau over whatever router is serving when the
// rebuild gets to run.
func (m *Maintainer) windowRebuild(s int, wl [][]float32, tau int) rebuildFunc {
	return func() (*ShardedEngine, *Engine, error) {
		se := m.se.Load()
		eng, err := m.build(se, s, wl, tau)
		return se, eng, err
	}
}

// launchWindowRebuild launches a windowRebuild of slot s; the caller must
// have won the slot's rebuilding CAS (see launchRebuild).
func (m *Maintainer) launchWindowRebuild(s int, wl [][]float32, tau int, retuned bool) bool {
	return m.launchRebuild(s, tau, retuned, m.windowRebuild(s, wl, tau), nil)
}

// launchRebuild starts slot s's background rebuild at code length tau
// (retuned marks a watchdog retune); onDone, when non-nil, learns whether an
// engine was installed, after the swap is visible. The caller must have won
// the slot's rebuilding CAS. After Close the launch is refused (releasing the
// CAS) instead of racing the shutdown.
func (m *Maintainer) launchRebuild(s, tau int, retuned bool, build rebuildFunc, onDone func(installed bool)) bool {
	m.lifeMu.Lock()
	if m.closed {
		m.lifeMu.Unlock()
		m.slots[s].rebuilding.Store(false)
		return false
	}
	m.wg.Add(1)
	m.lifeMu.Unlock()
	go m.backgroundRebuild(s, tau, retuned, build, onDone)
	return true
}

// backgroundRebuild rebuilds unit s off the search path and RCU-swaps the
// replacement in. Only this unit's engine pointer moves; the other units and
// every in-flight query (which snapshotted its engines at entry) are
// untouched. A failed build only bumps the slot's error counter: the old
// engine keeps serving and searches never observe the failure.
// MaintainOptions.RebuildGate, when set, parks the rebuild before it builds.
func (m *Maintainer) backgroundRebuild(s, tau int, retuned bool, build rebuildFunc, onDone func(installed bool)) {
	defer m.wg.Done()
	defer m.slots[s].rebuilding.Store(false)
	if m.opt.RebuildGate != nil {
		<-m.opt.RebuildGate
	}
	err := m.rebuild(s, tau, retuned, build)
	if onDone != nil {
		onDone(err == nil)
	}
}

// rebuild executes one rebuild of unit s under the slot's execution lock:
// build, then install. Shared by the background path and ForceShardRebuild.
func (m *Maintainer) rebuild(s, tau int, retuned bool, build rebuildFunc) error {
	slot := m.slots[s]
	slot.rebuildMu.Lock()
	defer slot.rebuildMu.Unlock()
	start := time.Now()
	se, eng, err := build()
	if err != nil {
		slot.rebuildErrs.Add(1)
		return err
	}
	m.install(se, s, eng, time.Since(start), tau, retuned)
	return nil
}

// install publishes unit s's freshly built engine inside router se (the
// serving router, or a compaction's refolded one — republishing the serving
// pointer is a no-op), records the rebuild timing and resets the slot's drift
// baseline and watchdog window: the fresh cache's behavior is what both
// detectors must judge from now on. A successful install also lifts the
// unit's quarantine — the rebuilt engine starts with a clean bill until its
// storage proves otherwise.
func (m *Maintainer) install(se *ShardedEngine, s int, eng *Engine, wall time.Duration, tau int, retuned bool) {
	slot := m.slots[s]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	se.swapEngine(s, eng)
	se.ClearQuarantine(s)
	m.se.Store(se)
	slot.rebuilds.Add(1)
	slot.tau.Store(int64(tau))
	if retuned {
		slot.retunes.Add(1)
	}
	slot.lastWallNs.Store(int64(wall))
	slot.lastAtNs.Store(time.Now().UnixNano())
	slot.drift.resetAfterInstall()
	slot.adapt.reset()
	if slot.monitor != nil {
		slot.monitor.NoteInstall(tau, retuned)
	}
}

// ForceShardRebuild rebuilds unit s synchronously from its current drift
// window (the paper's "e.g., daily" scheduled variant; call it from a timer
// if preferred) and reports any build error to the caller.
func (m *Maintainer) ForceShardRebuild(s int) error {
	wl := m.window(s)
	if len(wl) == 0 {
		return fmt.Errorf("core: shard %d has no recorded queries to rebuild from", s)
	}
	tau := m.slotTau(s)
	return m.rebuild(s, tau, false, m.windowRebuild(s, wl, tau))
}

// RebuildShardAsync launches unit s's background rebuild from its current
// window, returning false when one is already queued or running, the window
// is empty, or the maintainer is closed. Unlike ForceShardRebuild it never
// blocks the caller on the build.
func (m *Maintainer) RebuildShardAsync(s int) bool {
	slot := m.slots[s]
	if !slot.rebuilding.CompareAndSwap(false, true) {
		return false
	}
	wl := m.window(s)
	if len(wl) == 0 {
		slot.rebuilding.Store(false)
		return false
	}
	return m.launchWindowRebuild(s, wl, m.slotTau(s), false)
}

// CompactRebuild folds a live-ingest delta into the base through one
// ordinary non-blocking RCU rebuild of the single unit. prepare runs inside
// the background rebuild goroutine — under the slot's execution lock, off the
// search path — and performs the compactor's heavy lifting: extending the
// point file, building the folded dataset and its Phase-1 candidate
// generator. On success a fresh engine is profiled over the fold from the
// current drift window (or the initial workload when the window is empty) at
// the serving τ, and the refolded router — generator, id horizon and engine
// together — is published like any rebuild. onDone (optional) reports
// whether it was, after the swap is visible.
//
// CompactRebuild contends on the same launch CAS as drift, retune and
// quarantine rebuilds — one rebuild queue. It returns false without calling
// prepare when another rebuild is queued or running (the compactor simply
// retries on a later trigger) or when the maintainer is closed; the CAS is
// won before prepare runs, so a compaction never mutates the point file
// concurrently with another rebuild's profile or build. It also returns
// false for N > 1: the physical fold would have to re-partition every shard
// file, so sharded deployments never compact (restart recovery folds the WAL
// instead).
func (m *Maintainer) CompactRebuild(prepare func() (*dataset.Dataset, CandidateFunc, error), onDone func(installed bool)) bool {
	if len(m.slots) != 1 || !m.slots[0].rebuilding.CompareAndSwap(false, true) {
		return false
	}
	wl := m.window(0)
	if len(wl) == 0 {
		wl = m.initialWL
	}
	tau := m.slotTau(0)
	return m.launchRebuild(0, tau, false, func() (*ShardedEngine, *Engine, error) {
		ds, cands, err := prepare()
		if err != nil {
			return nil, nil, err
		}
		se, err := m.se.Load().refold(ds, cands)
		if err != nil {
			return nil, nil, err
		}
		eng, err := m.build(se, 0, wl, tau)
		return se, eng, err
	}, onDone)
}

// Close stops the maintainer's background activity: no further rebuilds or
// evaluations launch on any slot, and any already in flight are waited for
// (their swaps still land — the work is done, discarding it buys nothing).
// Searches through a closed Maintainer still work; they just serve the frozen
// engines. Close is idempotent and is the graceful-shutdown hook the HTTP
// server calls after draining requests.
func (m *Maintainer) Close() {
	m.lifeMu.Lock()
	m.closed = true
	m.lifeMu.Unlock()
	m.wg.Wait()
}

// ShardStats snapshots every slot's own rebuild activity.
func (m *Maintainer) ShardStats() []MaintainStats {
	se := m.se.Load()
	out := make([]MaintainStats, len(m.slots))
	for s, slot := range m.slots {
		out[s] = MaintainStats{
			Rebuilds:        int(slot.rebuilds.Load()),
			RebuildErrors:   int(slot.rebuildErrs.Load()),
			RebuildInFlight: slot.rebuilding.Load(),
			LastRebuildWall: time.Duration(slot.lastWallNs.Load()),
			Quarantines:     int(slot.quarantines.Load()),
			Quarantined:     se.Quarantined(s),
			Retunes:         int(slot.retunes.Load()),
			Tau:             m.slotTau(s),
		}
		if at := slot.lastAtNs.Load(); at > 0 {
			out[s].LastRebuildAt = time.Unix(0, at)
		}
	}
	return out
}

// Stats aggregates the per-slot rebuild activity; see MaintainStats.
func (m *Maintainer) Stats() MaintainStats { return FoldMaintainStats(m.ShardStats()) }

// FoldMaintainStats is the all-slot aggregate of one ShardStats snapshot:
// callers that show the rows and the aggregate side by side fold the rows
// they show, so the two cannot disagree.
func FoldMaintainStats(rows []MaintainStats) MaintainStats {
	var st MaintainStats
	for s, ss := range rows {
		st.Rebuilds += ss.Rebuilds
		st.RebuildErrors += ss.RebuildErrors
		st.RebuildInFlight = st.RebuildInFlight || ss.RebuildInFlight
		st.Quarantines += ss.Quarantines
		st.Quarantined = st.Quarantined || ss.Quarantined
		st.Retunes += ss.Retunes
		if s == 0 {
			st.Tau = ss.Tau
		} else if st.Tau != ss.Tau {
			st.Tau = 0
		}
		if ss.LastRebuildAt.After(st.LastRebuildAt) {
			st.LastRebuildAt, st.LastRebuildWall = ss.LastRebuildAt, ss.LastRebuildWall
		}
	}
	return st
}
