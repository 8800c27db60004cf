package ingest

import (
	"context"
	"math"
	"strings"
	"testing"

	"exploitbit/internal/core"
)

// stubSearcher records the overlay each merged search was handed.
type stubSearcher struct{ last *core.Merge }

func (s *stubSearcher) SearchCtx(ctx context.Context, q []float32, k int, dst []int, mg *core.Merge) ([]int, core.QueryStats, error) {
	s.last = mg
	return nil, core.QueryStats{}, nil
}

func openLiveFixture(t *testing.T) (*Live, *stubSearcher) {
	t.Helper()
	fold := foldFixture(2, 0)
	s := &stubSearcher{}
	l, err := Open(Config{
		Dir:      t.TempDir(),
		Fsync:    FsyncNone,
		Searcher: s,
		Fold:     fold,
		BaseN:    fold.Len(),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, s
}

// TestOverlayTombstoneSnapshotStable pins the Merge.Deleted contract: the
// overlay handed to one search must keep answering from the tombstone set as
// it was when the search started. The engine counts surviving extras in one
// pass and fills them in a second; a Delete published in between must not
// make the passes disagree (that left uninitialized scratch entries in the
// candidate set and returned phantom ids).
func TestOverlayTombstoneSnapshotStable(t *testing.T) {
	l, _ := openLiveFixture(t)
	ctx := context.Background()
	id, err := l.Insert(ctx, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}

	mg := l.overlay()
	if mg == nil || mg.Deleted == nil {
		t.Fatalf("overlay %+v, want non-nil with a Deleted mask", mg)
	}
	if mg.Deleted(0) || mg.Deleted(int32(id)) {
		t.Fatal("fresh overlay reports tombstones before any delete")
	}

	// A delete landing mid-search must not leak into the snapshot.
	if err := l.Delete(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	if mg.Deleted(0) || mg.Deleted(int32(id)) {
		t.Fatal("overlay tombstone view changed mid-search")
	}

	// The next search's overlay sees both deletes.
	next := l.overlay()
	if !next.Deleted(0) || !next.Deleted(int32(id)) {
		t.Fatal("new overlay misses committed deletes")
	}
}

// TestInsertRejectsIdOverflow: identifiers are int32 in the engine; the write
// path must fail loudly at the boundary instead of wrapping negative.
func TestInsertRejectsIdOverflow(t *testing.T) {
	l, _ := openLiveFixture(t)
	l.mu.Lock()
	l.nextID = math.MaxInt32 + 1
	l.mu.Unlock()
	if _, err := l.Insert(context.Background(), []float32{1, 1}); err == nil || !strings.Contains(err.Error(), "id space exhausted") {
		t.Fatalf("expected id-space-exhausted error, got %v", err)
	}
	if st := l.Stats(); st.Inserts != 0 || st.DeltaPoints != 0 {
		t.Fatalf("rejected insert leaked into stats: %+v", st)
	}
}
