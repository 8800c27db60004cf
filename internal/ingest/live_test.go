package ingest

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"exploitbit/internal/core"
)

func openLiveFixture(t *testing.T) *Live {
	t.Helper()
	fold := foldFixture(2, 0)
	l, err := Open(Config{
		Dir:   t.TempDir(),
		Fsync: FsyncNone,
		Fold:  fold,
		BaseN: fold.Len(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// dead reports whether the overlay tombstones id.
func dead(mg *core.Merge, id int) bool {
	_, ok := mg.Tombs[int64(id)]
	return ok
}

// TestOverlayTombstoneSnapshotStable pins the overlay-as-value contract: an
// overlay a search has taken keeps answering from the delta and the tombstone
// set as they were when it was taken. The engine masks candidates and scores
// extras off the same value for the whole search — and a whole batch — so a
// write published in between must not reach it (that once left uninitialized
// scratch entries in the candidate set and returned phantom ids).
func TestOverlayTombstoneSnapshotStable(t *testing.T) {
	l := openLiveFixture(t)
	ctx := context.Background()
	if mg := l.Overlay(); mg != nil {
		t.Fatalf("overlay %+v before any write, want nil", mg)
	}
	id, err := l.Insert(ctx, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}

	mg := l.Overlay()
	if mg == nil || len(mg.Extra) != 1 || int(mg.Extra[0].ID) != id {
		t.Fatalf("overlay %+v, want the one inserted point", mg)
	}
	if dead(mg, 0) || dead(mg, id) {
		t.Fatal("fresh overlay reports tombstones before any delete")
	}

	// Writes landing mid-search must not leak into the taken overlay.
	if err := l.Delete(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Insert(ctx, []float32{2, 2}); err != nil {
		t.Fatal(err)
	}
	if dead(mg, 0) || dead(mg, id) || len(mg.Extra) != 1 {
		t.Fatal("taken overlay changed mid-search")
	}

	// The next search's overlay sees every committed write.
	next := l.Overlay()
	if !dead(next, 0) || !dead(next, id) || len(next.Extra) != 2 {
		t.Fatalf("new overlay %+v misses committed writes", next)
	}
}

// TestReadsDoNotWaitForWrites: telemetry and the search path's overlay load
// must not queue behind a write. An insert holds Live.mu and WAL.mu across
// its fsync; with both held here, Stats and Overlay still return.
func TestReadsDoNotWaitForWrites(t *testing.T) {
	l := openLiveFixture(t)
	if _, err := l.Insert(context.Background(), []float32{1, 1}); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	l.wal.mu.Lock()
	done := make(chan Stats, 1)
	go func() {
		l.Overlay()
		done <- l.Stats()
	}()
	var st Stats
	blocked := false
	select {
	case st = <-done:
	case <-time.After(5 * time.Second):
		blocked = true
	}
	l.wal.mu.Unlock()
	l.mu.Unlock()
	if blocked {
		t.Fatal("Stats/Overlay blocked behind the write locks")
	}
	if st.DeltaPoints != 1 || st.Points != 3 || st.WalSegments != 1 || st.WalBytes <= walHeaderSize {
		t.Fatalf("lock-free stats %+v", st)
	}
}

// TestInsertRejectsIdOverflow: identifiers are int32 in the engine; the write
// path must fail loudly at the boundary instead of wrapping negative.
func TestInsertRejectsIdOverflow(t *testing.T) {
	l := openLiveFixture(t)
	l.nextID.Store(math.MaxInt32 + 1)
	if _, err := l.Insert(context.Background(), []float32{1, 1}); err == nil || !strings.Contains(err.Error(), "id space exhausted") {
		t.Fatalf("expected id-space-exhausted error, got %v", err)
	}
	if st := l.Stats(); st.Inserts != 0 || st.DeltaPoints != 0 {
		t.Fatalf("rejected insert leaked into stats: %+v", st)
	}
}
