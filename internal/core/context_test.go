package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fuseCtx is a context whose Err trips after a fixed number of polls — a
// deterministic stand-in for "the client disconnected mid-search" that lets
// the tests walk the cancellation point through every stage of Algorithm 1
// without sleeping.
type fuseCtx struct {
	context.Context
	polls atomic.Int64
	fuse  int64
}

func newFuseCtx(fuse int64) *fuseCtx {
	return &fuseCtx{Context: context.Background(), fuse: fuse}
}

func (c *fuseCtx) Err() error {
	if c.polls.Add(1) > c.fuse {
		return context.Canceled
	}
	return nil
}

// TestEngineCanceledContextAbandonsSearch is the acceptance test for the
// request-lifecycle tentpole: a canceled context abandons the search before
// refinement I/O. It walks the fuse through every context poll of one
// query; at each trip point the search must fail with context.Canceled, and
// whenever the engine has not yet entered Phase 3 it must not have charged
// a single fetch or page read.
func TestEngineCanceledContextAbandonsSearch(t *testing.T) {
	w := buildWorld(t, 1500, 12, 7)
	// NoCache: every surviving candidate goes to refinement, so the
	// before-Phase-3 cancellation point is always load-bearing.
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: NoCache})
	if err != nil {
		t.Fatal(err)
	}
	q := w.qtest[0]

	// Pre-canceled context: rejected before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st, err := eng.SearchCtx(ctx, q, 5, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	} else if st.Candidates != 0 || st.Fetched != 0 {
		t.Fatalf("pre-canceled ctx did work: %+v", st)
	}

	// Reference run: how much refinement I/O a complete query pays.
	_, ref, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Fetched == 0 {
		t.Fatal("reference query fetched nothing; fixture cannot exercise refinement")
	}

	sawPreRefinementCancel := false
	for fuse := int64(1); ; fuse++ {
		ctx := newFuseCtx(fuse)
		_, st, err := eng.SearchCtx(ctx, q, 5, nil, nil)
		if err == nil {
			if st.Fetched != ref.Fetched {
				t.Fatalf("fuse %d: completed search fetched %d, reference %d", fuse, st.Fetched, ref.Fetched)
			}
			break // fuse outlived the query: cancellation never fired
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fuse %d: err = %v, want context.Canceled", fuse, err)
		}
		// Once candidates were reduced but nothing was fetched, the search
		// died between Phase 2 and the first refinement fetch — the
		// disconnected client paid no I/O.
		if st.Remaining > 0 && st.Fetched == 0 {
			sawPreRefinementCancel = true
		}
		if st.Fetched > ref.Fetched {
			t.Fatalf("fuse %d: canceled search fetched %d > reference %d", fuse, st.Fetched, ref.Fetched)
		}
		if fuse > 1_000_000 {
			t.Fatal("fuse never outlived the query")
		}
	}
	if !sawPreRefinementCancel {
		t.Fatal("no fuse position abandoned the search after reduction but before refinement I/O")
	}

	// The engine must be unharmed by abandoned queries (pooled scratch not
	// poisoned): a normal search still returns k results.
	ids, _, err := eng.Search(q, 5)
	if err != nil || len(ids) != 5 {
		t.Fatalf("post-cancel search: ids=%v err=%v", ids, err)
	}
}

// TestEngineParallelReduceCanceled drives the fan-out Phase 2 with a
// pre-tripped context and checks the parallel path also reports the
// cancellation instead of swallowing it.
func TestEngineParallelReduceCanceled(t *testing.T) {
	w := buildWorld(t, 1500, 12, 11)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
		Method: HCO, CacheBytes: 64 << 10, Tau: 6,
		parallelReduceThreshold: 1, // force fan-out regardless of |C(q)|
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fuse of 2: the entry check and one more poll pass, then every worker
	// sees a dead context.
	_, _, err = eng.SearchCtx(newFuseCtx(2), w.qtest[0], 5, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel reduce: err = %v, want context.Canceled", err)
	}
}

func TestTreeEngineCanceledContext(t *testing.T) {
	w := buildTreeWorld(t, "idistance", 1200, 10, 23)
	eng, err := NewTreeEngine(w.ds, w.ix, w.store, w.wl, 10, TreeConfig{
		Method: NoCache, // every visited leaf is a disk load
	})
	if err != nil {
		t.Fatal(err)
	}
	q := w.qtest[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, st, err := eng.SearchCtx(ctx, q, 5, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	} else if st.Fetched != 0 || st.PageReads != 0 {
		t.Fatalf("pre-canceled ctx charged I/O: %+v", st)
	}

	_, ref, err := eng.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ref.PageReads == 0 {
		t.Fatal("reference tree query read no pages; fixture cannot exercise I/O abandonment")
	}
	for fuse := int64(1); ; fuse++ {
		_, st, err := eng.SearchCtx(newFuseCtx(fuse), q, 5, nil)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fuse %d: err = %v, want context.Canceled", fuse, err)
		}
		if st.PageReads > ref.PageReads {
			t.Fatalf("fuse %d: canceled search read %d pages > reference %d", fuse, st.PageReads, ref.PageReads)
		}
		if fuse > 1_000_000 {
			t.Fatal("fuse never outlived the query")
		}
	}

	ids, _, err := eng.Search(q, 5)
	if err != nil || len(ids) != 5 {
		t.Fatalf("post-cancel search: ids=%v err=%v", ids, err)
	}
}

func TestMaintainerContextPassThroughAndClose(t *testing.T) {
	forShards(t, func(t *testing.T, n int) {
		ds, pf, cands, poolA, _ := driftWorld(t)
		gate := make(chan struct{})
		m, _ := newTestMaintainer(t, ds, pf, cands, n, poolA[:50], 5, Config{
			Method: Exact, CacheBytes: 1 << 18,
		}, MaintainOptions{WindowSize: 16, RebuildGate: gate})

		// Cancellation flows through to the serving engines, and the abandoned
		// query enters no window.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := m.SearchCtx(ctx, poolA[0], 5, nil, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("maintainer ctx pass-through: err = %v", err)
		}
		if got := len(m.window(0)); got != 0 {
			t.Fatalf("canceled query entered the drift window (%d recorded)", got)
		}

		// Seed the windows and park a rebuild on the gate (the MaintainOptions
		// seam, usable from outside the package).
		seedWindows(t, m, poolA, 20, 5)
		s := n - 1
		if !m.RebuildShardAsync(s) {
			t.Fatal("RebuildShardAsync refused with a populated window")
		}

		// Close must wait for the gated rebuild, not abandon it.
		done := make(chan struct{})
		go func() {
			m.Close()
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("Close returned while a rebuild was still parked on the gate")
		case <-time.After(50 * time.Millisecond):
		}
		close(gate)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close never returned after the rebuild was released")
		}
		if st := m.Stats(); st.Rebuilds != 1 || st.RebuildInFlight {
			t.Fatalf("stats after Close: %+v", st)
		}

		// A closed maintainer refuses new rebuilds but still serves.
		if m.RebuildShardAsync(s) {
			t.Fatal("RebuildShardAsync accepted after Close")
		}
		if m.Stats().RebuildInFlight {
			t.Fatal("a refused launch left the rebuild queue taken")
		}
		if _, _, err := m.Search(poolA[0], 5); err != nil {
			t.Fatal(err)
		}
		m.Close() // idempotent
	})
}
