// Live-ingest facade: recovery-aware construction of a system that accepts
// inserts and deletes while serving, and the HTTP wiring that exposes the
// write path. The lifecycle is
//
//	fold, rec, _ := exploitbit.RecoverFold(ds, walDir)   // replay WAL
//	ls, _ := exploitbit.OpenLive(ds, wl, opt, cfg, mopt, lopt)
//	h := exploitbit.ServeLive(ls, exploitbit.ServeOptions{})
//
// (OpenLive performs the RecoverFold itself; the standalone helper exists for
// tests and tooling that inspect recovery without serving.)
//
// Every deployment serves through one Maintainer over Options.Shards units
// and gets WAL-durable writes and merged searches, with writes attributed to
// their home shard. The write path publishes the live overlay — delta points
// plus tombstones — as one immutable value (Live.Overlay, one atomic load);
// every request, POST /search or a whole POST /search/batch, takes it once
// and runs the maintainer's ordinary search under it, so a live batch is the
// same coalesced batch a static deployment serves. See DESIGN.md §16.
//
// Background compaction — folding the delta into the point file through the
// maintainer's ordinary RCU rebuild — is armed iff there is one unit: the
// physical fold of a sharded layout would have to re-partition every shard
// file, so sharded deployments fold the WAL at restart recovery instead. See
// DESIGN.md §17.

package exploitbit

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"exploitbit/internal/core"
	"exploitbit/internal/dataset"
	"exploitbit/internal/ingest"
	"exploitbit/internal/server"
)

// Live-ingest types re-exported through the facade vocabulary.
type (
	// LiveStats snapshots the write path (WAL, delta, compactions, replay).
	LiveStats = ingest.Stats
	// RecoverResult is the durable state replayed from a WAL directory.
	RecoverResult = ingest.RecoverResult
	// FsyncMode selects the WAL durability policy.
	FsyncMode = ingest.FsyncMode
)

// WAL fsync policies for LiveOptions.Fsync.
const (
	FsyncAlways = ingest.FsyncAlways
	FsyncNone   = ingest.FsyncNone
)

// ParseFsyncMode validates a -wal-fsync flag value.
var ParseFsyncMode = ingest.ParseFsyncMode

// ErrUnknownID marks a delete of an identifier no insert ever produced.
var ErrUnknownID = ingest.ErrUnknownID

// ErrWALFailed marks a write refused because an earlier write-ahead log
// write, sync or rotation failed: the log is fail-stop until a restart.
var ErrWALFailed = ingest.ErrWALFailed

// LiveOptions configures the live write path.
type LiveOptions struct {
	// WalDir is the write-ahead log directory (segments + checkpoint).
	// Required.
	WalDir string
	// Fsync is the WAL durability policy (default FsyncAlways).
	Fsync FsyncMode
	// CompactThreshold is the delta point count that triggers background
	// compaction (default 4096; compaction only runs unsharded).
	CompactThreshold int
}

// RecoverFold replays the WAL directory against the base dataset and returns
// the folded dataset (base plus every recovered point, identifiers dense in
// insertion order) together with the recovery record. A fresh directory folds
// to the base dataset itself.
func RecoverFold(ds *Dataset, walDir string) (*Dataset, *RecoverResult, error) {
	rec, err := ingest.Recover(walDir, ds.Len(), ds.Dim)
	if err != nil {
		return nil, nil, err
	}
	if len(rec.Points) == 0 {
		return ds, rec, nil
	}
	data := make([]float32, 0, (ds.Len()+len(rec.Points))*ds.Dim)
	data = append(data, ds.Data()...)
	for _, p := range rec.Points {
		data = append(data, p.Vec...)
	}
	return dataset.New(ds.Name, ds.Dim, data, ds.Domain), rec, nil
}

// shardWrites tallies write routing per shard.
type shardWrites struct {
	inserts []atomic.Int64
	deletes []atomic.Int64
}

// LiveSystem is a System serving reads and writes: the maintainer, the
// ingest write path, and the recovery record of the startup replay.
type LiveSystem struct {
	Sys  *System
	Live *ingest.Live
	// Maintainer is the serving maintainer (and, on one-unit deployments,
	// the compactor).
	Maintainer *Maintainer
	// Recovery records what startup replay found.
	Recovery *RecoverResult

	writes shardWrites
}

// OpenLive recovers the WAL directory, opens the system over the folded
// dataset, builds the maintainer over opt.Shards units, and wires the live
// write path over it. cfg and mopt configure the maintainer exactly as
// System.Maintained would.
func OpenLive(ds *Dataset, wl [][]float32, opt Options, cfg core.Config, mopt MaintainOptions, lopt LiveOptions) (*LiveSystem, error) {
	if lopt.WalDir == "" {
		return nil, fmt.Errorf("exploitbit: LiveOptions.WalDir is required")
	}
	fold, rec, err := RecoverFold(ds, lopt.WalDir)
	if err != nil {
		return nil, err
	}
	sys, err := Open(fold, wl, opt)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*LiveSystem, error) {
		sys.Close()
		return nil, err
	}
	if cfg.Tau == 0 && cfg.CacheBytes > 0 {
		// Auto-tune the code length over the folded dataset, exactly as the
		// non-live serving path does over the base.
		cfg.Tau = sys.OptimalTau(cfg.CacheBytes)
	}
	m, err := sys.Maintained(cfg, mopt)
	if err != nil {
		return fail(err)
	}
	ls := &LiveSystem{Sys: sys, Maintainer: m, Recovery: rec, writes: shardWrites{
		inserts: make([]atomic.Int64, sys.Shards()),
		deletes: make([]atomic.Int64, sys.Shards()),
	}}
	icfg := ingest.Config{
		Dir:              lopt.WalDir,
		Fsync:            lopt.Fsync,
		Fold:             fold,
		BaseN:            ds.Len(),
		CompactThreshold: lopt.CompactThreshold,
	}
	if sys.Shards() == 1 {
		// Compaction is armed iff N = 1: folding the delta into a sharded
		// layout would re-partition every shard file, so sharded deployments
		// leave it to the next restart's recovery (Maintainer.CompactRebuild
		// refuses N > 1 for the same reason).
		icfg.Compactor = m
		icfg.PF = sys.PF
		icfg.BuildCands = func(fds *dataset.Dataset) core.CandidateFunc {
			return buildCandidates(fds, sys.opt)
		}
	}
	live, err := ingest.Open(icfg, rec)
	if err != nil {
		m.Close()
		return fail(err)
	}
	ls.Live = live
	return ls, nil
}

// Insert admits one point through the live write path, attributing it to its
// home shard.
func (ls *LiveSystem) Insert(ctx context.Context, vec []float32) (int, error) {
	id, err := ls.Live.Insert(ctx, vec)
	if err == nil {
		ls.writes.inserts[ls.Maintainer.Sharded().HomeShard(id)].Add(1)
	}
	return id, err
}

// Delete tombstones one point, attributing the write to the shard that owns
// it.
func (ls *LiveSystem) Delete(ctx context.Context, id int) error {
	err := ls.Live.Delete(ctx, id)
	if err == nil {
		ls.writes.deletes[ls.Maintainer.Sharded().HomeShard(id)].Add(1)
	}
	return err
}

// Search serves one merged query under the current live overlay.
func (ls *LiveSystem) Search(ctx context.Context, q []float32, k int, dst []int) ([]int, QueryStats, error) {
	return ls.Maintainer.SearchCtx(ctx, q, k, dst, ls.Live.Overlay())
}

// Stats snapshots the write path.
func (ls *LiveSystem) Stats() LiveStats { return ls.Live.Stats() }

// Close shuts the write path, drains the maintainer (any in-flight compaction
// completes or aborts with it), and releases the system.
func (ls *LiveSystem) Close() error {
	var err error
	if ls.Live != nil {
		err = ls.Live.Close()
	}
	ls.Maintainer.Close()
	if cErr := ls.Sys.Close(); err == nil {
		err = cErr
	}
	return err
}

// ServeLive exposes a live system over HTTP: everything ServeMaintained
// serves, plus POST /insert and POST /delete and the ingest telemetry block on
// /stats and /metrics. Searches, single and batch, run under the live overlay,
// so freshly inserted points are visible and deleted points masked
// immediately.
func ServeLive(ls *LiveSystem, opt ServeOptions) http.Handler {
	m := ls.Maintainer
	return newHandler(served{s: m, shards: m.ShardAggregates, m: m, ls: ls}, opt)
}

// servedLive is served plus the write methods the handler discovers as its
// Ingestor; searching is served's, overlay included.
type servedLive struct{ served }

func (sl servedLive) Insert(ctx context.Context, vec []float32) (int, error) {
	id, err := sl.ls.Insert(ctx, vec)
	return id, walErr(err)
}

// Delete translates the ingest sentinels to the server's 404 and 503.
func (sl servedLive) Delete(ctx context.Context, id int) error {
	err := sl.ls.Delete(ctx, id)
	if errors.Is(err, ingest.ErrUnknownID) {
		return fmt.Errorf("%w (id %d)", server.ErrUnknownID, id)
	}
	return walErr(err)
}

// walErr translates the ingest fail-stop sentinel to the server's 503.
func walErr(err error) error {
	if errors.Is(err, ingest.ErrWALFailed) {
		return fmt.Errorf("%w: %w", server.ErrWALFailed, err)
	}
	return err
}
