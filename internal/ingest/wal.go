// Package ingest is the live write path of the system: a durable write-ahead
// log for inserts and deletes, an in-memory delta index published as the one
// overlay value merged Algorithm 1 searches take (the package itself knows
// nothing about searching), crash recovery by checkpoint load plus WAL replay, and a background compactor that folds
// the delta into the on-disk point file through one ordinary RCU engine
// rebuild. See DESIGN.md §16 for the full lifecycle.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// FsyncMode selects the WAL durability policy.
type FsyncMode string

// WAL fsync policies.
const (
	// FsyncAlways syncs the segment after every record: a crash loses at
	// most the record being written (which replay truncates).
	FsyncAlways FsyncMode = "always"
	// FsyncNone leaves syncing to the OS: cheaper, but a crash may lose
	// the segment's buffered tail.
	FsyncNone FsyncMode = "none"
)

// ParseFsyncMode validates a -wal-fsync flag value.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case FsyncAlways, FsyncNone:
		return FsyncMode(s), nil
	}
	return "", fmt.Errorf("ingest: unknown fsync mode %q (want always or none)", s)
}

// WAL on-disk format. A log directory holds numbered segment files
// wal-%08d.log plus at most one checkpoint.ebc. Each segment starts with a
// 16-byte header:
//
//	magic   u32 "EBWL" (little-endian 'E','B','W','L' bytes)
//	version u32 = 1
//	dim     u32   dimensionality every insert payload must match
//	reserved u32 = 0
//
// followed by length-prefixed CRC-framed records:
//
//	payloadLen u32 | crc32 u32 (IEEE, over payload) | payload
//
// with payload
//
//	op u8 (1=insert, 2=delete) | id u64 LE | [insert only: dim × f32 LE]
//
// A torn tail — short read, bad CRC, or impossible length — is truncated on
// replay, but only in the newest segment; anywhere else it is corruption and
// replay fails loudly.
const (
	walMagic      = 'E' | 'B'<<8 | 'W'<<16 | 'L'<<24
	walVersion    = 1
	walHeaderSize = 16

	opInsert byte = 1
	opDelete byte = 2
)

// syncDir fsyncs a directory so the metadata changes inside it — file
// creation, rename, unlink — survive a power loss. Without it a crash can
// persist a segment's records but not the segment's directory entry, or
// persist retired-segment unlinks while an earlier checkpoint rename is
// still unpublished, breaking the checkpoint-before-retirement ordering.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ingest: open wal dir for sync: %w", err)
	}
	err = d.Sync()
	if cErr := d.Close(); err == nil {
		err = cErr
	}
	if err != nil {
		return fmt.Errorf("ingest: sync wal dir: %w", err)
	}
	return nil
}

// segmentName formats the file name of segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segment sequence numbers in ascending
// order.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: list wal dir: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// ErrWALFailed marks a write refused because an earlier WAL write, sync or
// rotation failed. The log is fail-stop: a failed fsync cannot be retried
// safely (the kernel may have dropped the dirty pages), and truncating a torn
// frame is a second write that can fail too, so after the first failure the
// WAL refuses every append without touching the file. A restart's Recover
// truncates the torn tail, if any, and replays exactly what reached the log.
var ErrWALFailed = errors.New("ingest: wal failed")

// segmentIO writes and syncs the active segment file. The WAL uses the file's
// own methods; tests substitute it to inject a short write or a failed sync.
type segmentIO interface {
	write(f *os.File, b []byte) (int, error)
	sync(f *os.File) error
}

type fileIO struct{}

func (fileIO) write(f *os.File, b []byte) (int, error) { return f.Write(b) }
func (fileIO) sync(f *os.File) error                   { return f.Sync() }

// WAL is an append-only write-ahead log over numbered segment files. Appends
// are serialized internally; Rotate seals the active segment (so a checkpoint
// can cover it) and starts the next one.
type WAL struct {
	dir  string
	dim  int
	mode FsyncMode

	mu     sync.Mutex
	f      *os.File
	io     segmentIO
	seq    uint64 // active segment
	buf    []byte
	failed error // the first write, sync or rotation failure, wrapped in ErrWALFailed

	// Written under mu, read by Stats without it.
	liveBytes atomic.Int64 // bytes across every retained segment, active included
	segments  atomic.Int64
}

// OpenWAL opens the log directory for appending, creating it if needed, and
// starts a fresh segment numbered startSeq (pass RecoverResult.NextSeq so the
// new segment sorts after everything replay consumed). Existing segments are
// left in place; their bytes count toward Stats until RemoveThrough retires
// them.
func OpenWAL(dir string, dim int, startSeq uint64, mode FsyncMode) (*WAL, error) {
	if dim < 1 {
		return nil, fmt.Errorf("ingest: wal dim %d < 1", dim)
	}
	if mode != FsyncAlways && mode != FsyncNone {
		return nil, fmt.Errorf("ingest: unknown fsync mode %q", mode)
	}
	if startSeq == 0 {
		startSeq = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create wal dir: %w", err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, dim: dim, mode: mode, io: fileIO{}}
	for _, seq := range seqs {
		if seq >= startSeq {
			return nil, fmt.Errorf("ingest: segment %s already exists at or past start sequence %d", segmentName(seq), startSeq)
		}
		fi, err := os.Stat(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, fmt.Errorf("ingest: stat segment: %w", err)
		}
		w.liveBytes.Add(fi.Size())
		w.segments.Add(1)
	}
	if err := w.openSegment(startSeq); err != nil {
		return nil, err
	}
	return w, nil
}

// openSegment creates and activates segment seq. Caller holds w.mu or has
// exclusive access.
func (w *WAL) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: create segment: %w", err)
	}
	hdr := make([]byte, walHeaderSize)
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], walMagic)
	le.PutUint32(hdr[4:], walVersion)
	le.PutUint32(hdr[8:], uint32(w.dim))
	le.PutUint32(hdr[12:], 0)
	if _, err := w.io.write(f, hdr); err != nil {
		f.Close()
		return fmt.Errorf("ingest: write segment header: %w", err)
	}
	if w.mode == FsyncAlways {
		if err := w.io.sync(f); err != nil {
			f.Close()
			return fmt.Errorf("ingest: sync segment header: %w", err)
		}
		// Make the segment's directory entry durable too: record fsyncs are
		// worthless if a power loss forgets the file ever existed.
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f = f
	w.seq = seq
	w.liveBytes.Add(walHeaderSize)
	w.segments.Add(1)
	return nil
}

// AppendInsert logs the insertion of point id with the given (already
// clamped) vector.
func (w *WAL) AppendInsert(id uint64, vec []float32) error {
	if len(vec) != w.dim {
		return fmt.Errorf("ingest: insert dim %d, wal dim %d", len(vec), w.dim)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	payload := w.payloadBuf(9 + 4*w.dim)
	payload[0] = opInsert
	le := binary.LittleEndian
	le.PutUint64(payload[1:], id)
	for i, v := range vec {
		le.PutUint32(payload[9+4*i:], math.Float32bits(v))
	}
	return w.appendLocked(payload)
}

// AppendDelete logs the deletion of point id.
func (w *WAL) AppendDelete(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	payload := w.payloadBuf(9)
	payload[0] = opDelete
	binary.LittleEndian.PutUint64(payload[1:], id)
	return w.appendLocked(payload)
}

// payloadBuf returns a reused n-byte payload slice with 8 framing bytes of
// headroom in front (w.buf[:8+n] is the full record).
func (w *WAL) payloadBuf(n int) []byte {
	if cap(w.buf) < 8+n {
		w.buf = make([]byte, 8+n)
	}
	w.buf = w.buf[:8+n]
	return w.buf[8:]
}

// appendLocked frames payload (which must alias w.buf[8:]) and writes the
// record to the active segment. Caller holds w.mu.
func (w *WAL) appendLocked(payload []byte) error {
	if w.failed != nil {
		return w.failed
	}
	if w.f == nil {
		return fmt.Errorf("ingest: wal is closed")
	}
	rec := w.buf
	le := binary.LittleEndian
	le.PutUint32(rec[0:], uint32(len(payload)))
	le.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.io.write(w.f, rec); err != nil {
		return w.fail(fmt.Errorf("append wal record: %w", err))
	}
	if w.mode == FsyncAlways {
		if err := w.io.sync(w.f); err != nil {
			return w.fail(fmt.Errorf("sync wal record: %w", err))
		}
	}
	w.liveBytes.Add(int64(len(rec)))
	return nil
}

// fail poisons the WAL with its first failure and returns the error every
// later append and Rotate returns. Caller holds w.mu.
func (w *WAL) fail(err error) error {
	w.failed = fmt.Errorf("%w: %w", ErrWALFailed, err)
	return w.failed
}

// Rotate seals the active segment and starts the next one, returning the
// sealed segment's sequence number — the coverage horizon a checkpoint taken
// now can claim: every record in segments ≤ the returned sequence is visible
// to the caller, and records appended after Rotate land strictly later.
func (w *WAL) Rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.f == nil {
		return 0, fmt.Errorf("ingest: wal is closed")
	}
	if err := w.io.sync(w.f); err != nil {
		return 0, w.fail(fmt.Errorf("sync on rotate: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return 0, w.fail(fmt.Errorf("close on rotate: %w", err))
	}
	sealed := w.seq
	w.f = nil
	if err := w.openSegment(sealed + 1); err != nil {
		return 0, w.fail(err)
	}
	return sealed, nil
}

// RemoveThrough deletes every segment with sequence ≤ seq. Call it only with
// a horizon covered by a durable checkpoint; the active segment is never ≤ a
// sealed horizon, so it is never removed.
func (w *WAL) RemoveThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seqs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, s := range seqs {
		if s > seq || s == w.seq {
			continue
		}
		path := filepath.Join(w.dir, segmentName(s))
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("ingest: stat retired segment: %w", err)
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("ingest: remove retired segment: %w", err)
		}
		w.liveBytes.Add(-fi.Size())
		w.segments.Add(-1)
		removed = true
	}
	if removed {
		return syncDir(w.dir)
	}
	return nil
}

// Stats reports the retained log size in bytes and the number of retained
// segments (the active one included). Lock-free: a reader never waits for an
// append's fsync.
func (w *WAL) Stats() (bytes int64, segments int) {
	return w.liveBytes.Load(), int(w.segments.Load())
}

// Close syncs and closes the active segment. The WAL rejects appends
// afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cErr := w.f.Close(); err == nil {
		err = cErr
	}
	w.f = nil
	return err
}
