package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"exploitbit/internal/core"
)

// faultIO fails the WAL's next record write or sync once. Like the OS after
// ENOSPC or EIO, the very next call succeeds again, so a WAL that retried
// over the failure would get its retry acknowledged.
type faultIO struct {
	shortWrite bool // the next write stores half its bytes, then fails
	failSync   bool // the next sync fails after a complete write
}

func (f *faultIO) write(file *os.File, b []byte) (int, error) {
	if f.shortWrite {
		f.shortWrite = false
		n, _ := file.Write(b[:len(b)/2])
		return n, syscall.ENOSPC
	}
	return file.Write(b)
}

func (f *faultIO) sync(file *os.File) error {
	if f.failSync {
		f.failSync = false
		return syscall.EIO
	}
	return file.Sync()
}

// walFailRestart acknowledges one insert, injects a fault, and checks that
// the failing insert, its retry and a delete all return ErrWALFailed without
// touching the segment (and so does a Rotate, when rotate is set). It then
// restarts the directory and checks that recovery replays every acknowledged
// write exactly; the one failed record may survive whole (its outcome was
// never acknowledged either way), and nothing else does.
func walFailRestart(t *testing.T, inject func(*faultIO), rotate bool) *RecoverResult {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	fold := foldFixture(2, 0)
	l, err := Open(Config{Dir: dir, Fsync: FsyncAlways, Fold: fold, BaseN: fold.Len()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fio := &faultIO{}
	l.wal.io = fio

	// insert records every insert the live system acknowledges.
	var acked []core.MergePoint
	insert := func(v []float32) error {
		id, err := l.Insert(ctx, v)
		if err == nil {
			acked = append(acked, core.MergePoint{ID: int32(id), Vec: v})
		}
		return err
	}
	if err := insert([]float32{1, 1}); err != nil {
		t.Fatal(err)
	}

	inject(fio)
	if err := insert([]float32{2, 2}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("failing insert: err %v, want ErrWALFailed", err)
	}
	seg := filepath.Join(dir, segmentName(1))
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := insert([]float32{2, 2}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("retried insert: err %v, want ErrWALFailed", err)
	}
	if err := l.Delete(ctx, int(acked[0].ID)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("delete after the failure: err %v, want ErrWALFailed", err)
	}
	if rotate {
		if _, err := l.wal.Rotate(); !errors.Is(err, ErrWALFailed) {
			t.Fatalf("rotate after the failure: err %v, want ErrWALFailed", err)
		}
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("refused writes touched the segment: %d bytes, then %d", before.Size(), after.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, fold.Len(), fold.Dim)
	if err != nil {
		t.Fatalf("restart after the failure: %v", err)
	}
	if len(rec.Points) < len(acked) || len(rec.Points) > len(acked)+1 {
		t.Fatalf("recovered %d points, want the %d acknowledged (+ at most the failed one)", len(rec.Points), len(acked))
	}
	if !reflect.DeepEqual(rec.Points[:len(acked)], acked) {
		t.Fatalf("recovered %+v, acknowledged %+v", rec.Points[:len(acked)], acked)
	}
	if len(rec.Tombs) != 0 {
		t.Fatalf("recovered tombstones %v; the only delete was refused", rec.Tombs)
	}
	return rec
}

// TestWALFailStopAfterSyncFailure: a sync fails after a complete record
// write. Retrying under the same identifier would log it twice, and the
// restart would refuse the directory with an identifier gap.
func TestWALFailStopAfterSyncFailure(t *testing.T) {
	walFailRestart(t, func(f *faultIO) { f.failSync = true }, false)
}

// TestWALFailStopAfterShortWrite: a record write stops partway through the
// frame. An acknowledged retry behind the torn bytes would be dropped by the
// restart's truncation, or, once a Rotate sealed the segment, the restart
// would refuse the corruption outright.
func TestWALFailStopAfterShortWrite(t *testing.T) {
	for _, rotate := range []bool{false, true} {
		name := "restart"
		if rotate {
			name = "rotate-then-restart"
		}
		t.Run(name, func(t *testing.T) {
			rec := walFailRestart(t, func(f *faultIO) { f.shortWrite = true }, rotate)
			if len(rec.Points) != 1 || rec.TruncatedBytes == 0 {
				t.Fatalf("recovered %d points, truncated %d bytes; want the 1 acknowledged and the torn frame dropped",
					len(rec.Points), rec.TruncatedBytes)
			}
		})
	}
}
