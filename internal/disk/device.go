// Package disk is the storage substrate. It models the paper's experimental
// setup — datasets and index leaf pages resident on a hard disk with the OS
// cache disabled, 4 KB blocks — while remaining deterministic on any machine:
// every physical page read is counted and charged a configurable simulated
// seek latency Tio, so the paper's refinement-cost model
// Trefine ≈ Tio · Crefine (Section 2.2) can be reported exactly, alongside
// real wall-clock time.
package disk

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// DefaultPageSize matches the paper's 4 KB block size.
const DefaultPageSize = 4096

// DefaultTio is the simulated cost of one random page read. 5 ms is a
// conventional HDD seek+rotational latency; with candidate sets of ~100
// points it reproduces the paper's ~0.5 s EXACT refinement times.
const DefaultTio = 5 * time.Millisecond

// Stats is a snapshot of a device's I/O counters. PageReads counts logical
// page reads (one per ReadPage call, however many physical attempts it
// took), so per-query I/O accounting stays exact under retries; Retries and
// the error counters expose the fault-handling activity separately.
type Stats struct {
	PageReads  int64
	PageWrites int64

	// Retries counts extra physical attempts spent recovering transient
	// faults; TransientErrors/PermanentErrors count failed attempts by class.
	Retries         int64
	TransientErrors int64
	PermanentErrors int64
}

// SimulatedIO returns the simulated I/O time for s under latency tio.
func (s Stats) SimulatedIO(tio time.Duration) time.Duration {
	return time.Duration(s.PageReads) * tio
}

// Device is a page-granular file. All reads go through ReadPage so that the
// I/O accounting is airtight. A Device is safe for concurrent use.
type Device struct {
	f        *os.File
	pageSize int
	tio      time.Duration

	reads  atomic.Int64
	writes atomic.Int64
	pages  atomic.Int64 // high-water page count

	retries       atomic.Int64
	transientErrs atomic.Int64
	permanentErrs atomic.Int64

	faults atomic.Pointer[Injector]    // nil: no fault injection
	retry  atomic.Pointer[RetryPolicy] // nil: fail on first error
}

// Create creates (truncating) a page device at path.
func Create(path string, pageSize int, tio time.Duration) (*Device, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("disk: page size %d too small", pageSize)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	return &Device{f: f, pageSize: pageSize, tio: tio}, nil
}

// Open opens an existing device created with the same page size.
func Open(path string, pageSize int, tio time.Duration) (*Device, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("disk: page size %d too small", pageSize)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: %w", err)
	}
	d := &Device{f: f, pageSize: pageSize, tio: tio}
	d.pages.Store((st.Size() + int64(pageSize) - 1) / int64(pageSize))
	return d, nil
}

// PageSize returns the page size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// Tio returns the simulated per-read latency.
func (d *Device) Tio() time.Duration { return d.tio }

// NumPages returns the number of pages ever written.
func (d *Device) NumPages() int { return int(d.pages.Load()) }

// SetFaults installs (or, with nil, removes) a fault injector on the
// device's physical read path.
func (d *Device) SetFaults(in *Injector) { d.faults.Store(in) }

// SetRetry installs the transient-fault retry policy. MaxRetries < 1
// disables retrying.
func (d *Device) SetRetry(rp RetryPolicy) {
	if rp.MaxRetries < 1 {
		d.retry.Store(nil)
		return
	}
	rp = rp.withDefaults()
	d.retry.Store(&rp)
}

// RetryPolicy returns the installed retry policy (zero value when none).
func (d *Device) RetryPolicy() RetryPolicy {
	if rp := d.retry.Load(); rp != nil {
		return *rp
	}
	return RetryPolicy{}
}

// ReadPage reads page n into buf (len >= PageSize) and counts one logical
// read; see ReadPageCtx.
func (d *Device) ReadPage(n int, buf []byte) error {
	return d.ReadPageCtx(context.Background(), n, buf)
}

// ReadPageCtx is ReadPage under a request context. A short read at the end
// of the file (io.EOF with a partial count) is a legitimate tail page and is
// zero-padded; any other partial or failed read surfaces as a *PageError —
// never as silently zero-filled data. Transient faults are retried per the
// installed RetryPolicy with exponential backoff; a canceled ctx stops
// retrying immediately and returns its error.
func (d *Device) ReadPageCtx(ctx context.Context, n int, buf []byte) error {
	if len(buf) < d.pageSize {
		return fmt.Errorf("disk: buffer %d smaller than page %d", len(buf), d.pageSize)
	}
	if n < 0 || n >= d.NumPages() {
		return fmt.Errorf("disk: page %d out of range [0,%d)", n, d.NumPages())
	}
	d.reads.Add(1)
	rp := d.retry.Load()
	for attempt := 0; ; attempt++ {
		err := d.readPageOnce(ctx, n, buf)
		if err == nil {
			return nil
		}
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			return err // canceled inside an injected delay: not a device fault
		}
		var pe *PageError
		if !errors.As(err, &pe) {
			pe = &PageError{Page: n, Op: "read", Err: err}
			err = pe
		}
		if pe.Transient {
			d.transientErrs.Add(1)
		} else {
			d.permanentErrs.Add(1)
		}
		if !pe.Transient || rp == nil || attempt >= rp.MaxRetries {
			return err
		}
		if cerr := sleepCtx(ctx, rp.delay(n, attempt)); cerr != nil {
			return cerr
		}
		d.retries.Add(1)
	}
}

// readPageOnce is one physical read attempt: fault injection first, then the
// real ReadAt, with the EOF-only zero-pad rule applied to the outcome.
func (d *Device) readPageOnce(ctx context.Context, n int, buf []byte) error {
	off := int64(n) * int64(d.pageSize)
	if in := d.faults.Load(); in != nil {
		if r := in.match(n); r != nil {
			switch r.Kind {
			case FaultError:
				return &PageError{Page: n, Op: "read", Transient: r.Transient, Err: ErrInjected}
			case FaultTorn:
				// Deliver a prefix of the page, scribble the rest, and fail
				// with a non-EOF error: the classic mid-file partial read.
				torn := r.TornBytes
				if torn <= 0 || torn >= d.pageSize {
					torn = d.pageSize / 2
				}
				d.f.ReadAt(buf[:torn], off)
				for i := torn; i < d.pageSize; i++ {
					buf[i] = 0xEB
				}
				return &PageError{Page: n, Op: "read", Transient: r.Transient, Err: ErrTornRead}
			case FaultLatency:
				if err := sleepCtx(ctx, r.Latency); err != nil {
					return err
				}
			}
		}
	}
	got, err := d.f.ReadAt(buf[:d.pageSize], off)
	if err != nil {
		if errors.Is(err, io.EOF) && got > 0 {
			// Tail page shorter than pageSize: pad with zeros. Only an EOF
			// partial read is a legitimate short page — any other mid-file
			// short read means lost data and must propagate.
			for i := got; i < d.pageSize; i++ {
				buf[i] = 0
			}
			return nil
		}
		return &PageError{Page: n, Op: "read", Err: err}
	}
	return nil
}

// WritePage writes buf (exactly PageSize bytes) as page n.
func (d *Device) WritePage(n int, buf []byte) error {
	if len(buf) != d.pageSize {
		return fmt.Errorf("disk: write buffer %d != page size %d", len(buf), d.pageSize)
	}
	if n < 0 {
		return fmt.Errorf("disk: negative page %d", n)
	}
	d.writes.Add(1)
	if _, err := d.f.WriteAt(buf, int64(n)*int64(d.pageSize)); err != nil {
		d.permanentErrs.Add(1)
		return &PageError{Page: n, Op: "write", Err: err}
	}
	for {
		cur := d.pages.Load()
		if int64(n) < cur {
			return nil
		}
		if d.pages.CompareAndSwap(cur, int64(n)+1) {
			return nil
		}
	}
}

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats {
	return Stats{
		PageReads:       d.reads.Load(),
		PageWrites:      d.writes.Load(),
		Retries:         d.retries.Load(),
		TransientErrors: d.transientErrs.Load(),
		PermanentErrors: d.permanentErrs.Load(),
	}
}

// ResetStats zeroes the counters (typically between queries or experiments).
func (d *Device) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.retries.Store(0)
	d.transientErrs.Store(0)
	d.permanentErrs.Store(0)
}

// Close closes the underlying file.
func (d *Device) Close() error { return d.f.Close() }
