package disk

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// faultDevice builds a small device with nPages pages of recognizable bytes.
func faultDevice(t *testing.T, nPages int) *Device {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dev")
	d, err := Create(path, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	page := make([]byte, 128)
	for p := 0; p < nPages; p++ {
		for i := range page {
			page[i] = byte(p + i)
		}
		if err := d.WritePage(p, page); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	return d
}

func TestFaultInjectError(t *testing.T) {
	d := faultDevice(t, 4)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 2, LastPage: 2, Transient: false},
	}}))

	buf := make([]byte, 128)
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatalf("clean page: %v", err)
	}
	err := d.ReadPage(2, buf)
	if err == nil {
		t.Fatal("expected injected error")
	}
	var pe *PageError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PageError", err)
	}
	if pe.Page != 2 || pe.Op != "read" || pe.Transient {
		t.Fatalf("PageError = %+v", pe)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error %v does not wrap ErrInjected", err)
	}
	if !IsPermanent(err) || IsTransient(err) {
		t.Fatalf("classification wrong for %v", err)
	}
	st := d.Stats()
	if st.PageReads != 2 || st.PermanentErrors != 1 || st.TransientErrors != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTornReadPropagates is the regression test for the zero-pad bug: a
// mid-file partial read must surface as an error, never as silently padded
// data.
func TestTornReadPropagates(t *testing.T) {
	d := faultDevice(t, 4)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultTorn, FirstPage: 1, LastPage: 1, TornBytes: 32},
	}}))

	buf := make([]byte, 128)
	err := d.ReadPage(1, buf)
	if err == nil {
		t.Fatal("torn read must propagate, not zero-pad")
	}
	if !errors.Is(err, ErrTornRead) {
		t.Fatalf("error %v does not wrap ErrTornRead", err)
	}
	if !IsPermanent(err) {
		t.Fatalf("default torn read should be permanent: %v", err)
	}
	// The scribbled tail proves the buffer cannot be mistaken for valid data.
	if buf[127] != 0xEB {
		t.Fatalf("tail byte = %#x, want scribble 0xEB", buf[127])
	}
}

// TestEOFTailZeroPad pins the one legitimate short read: the tail page of a
// file whose size is not a page multiple is zero-padded and succeeds.
func TestEOFTailZeroPad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short")
	// 1.5 pages of 0xAA: page 1 exists but is only half there.
	if err := os.WriteFile(path, make128x(0xAA, 192), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", d.NumPages())
	}
	buf := make([]byte, 128)
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatalf("tail page read: %v", err)
	}
	for i := 0; i < 64; i++ {
		if buf[i] != 0xAA {
			t.Fatalf("byte %d = %#x, want 0xAA", i, buf[i])
		}
	}
	for i := 64; i < 128; i++ {
		if buf[i] != 0 {
			t.Fatalf("pad byte %d = %#x, want 0", i, buf[i])
		}
	}
}

func make128x(b byte, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return s
}

func TestRetryRecoversTransient(t *testing.T) {
	d := faultDevice(t, 4)
	// Fail page 2 twice, transiently; the third attempt succeeds.
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 2, LastPage: 2, Count: 2, Transient: true},
	}}))
	d.SetRetry(RetryPolicy{MaxRetries: 3, Backoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond})

	buf := make([]byte, 128)
	if err := d.ReadPage(2, buf); err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if buf[0] != byte(2) {
		t.Fatalf("recovered data wrong: %#x", buf[0])
	}
	st := d.Stats()
	// One logical read, two failed attempts, two retries.
	if st.PageReads != 1 {
		t.Fatalf("PageReads = %d, want 1 (logical reads must not count retries)", st.PageReads)
	}
	if st.Retries != 2 || st.TransientErrors != 2 || st.PermanentErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPermanentFaultNotRetried(t *testing.T) {
	d := faultDevice(t, 4)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 0, LastPage: -1, Transient: false},
	}}))
	d.SetRetry(RetryPolicy{MaxRetries: 5, Backoff: time.Microsecond})

	err := d.ReadPage(1, make([]byte, 128))
	if !IsPermanent(err) {
		t.Fatalf("want permanent error, got %v", err)
	}
	st := d.Stats()
	if st.Retries != 0 || st.PermanentErrors != 1 {
		t.Fatalf("permanent faults must not be retried: %+v", st)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	d := faultDevice(t, 4)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 1, LastPage: 1, Transient: true},
	}}))
	d.SetRetry(RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond})

	err := d.ReadPage(1, make([]byte, 128))
	if !IsTransient(err) {
		t.Fatalf("exhausted retries should surface the transient error, got %v", err)
	}
	st := d.Stats()
	// 1 + MaxRetries attempts, all failed; MaxRetries retries.
	if st.PageReads != 1 || st.Retries != 2 || st.TransientErrors != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryStopsOnCancel(t *testing.T) {
	d := faultDevice(t, 4)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 1, LastPage: 1, Transient: true},
	}}))
	d.SetRetry(RetryPolicy{MaxRetries: 1000, Backoff: time.Hour, MaxBackoff: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := d.ReadPageCtx(ctx, 1, make([]byte, 128))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled retry took %v — backoff did not honor ctx", elapsed)
	}
}

func TestFaultDeterministicWithSeed(t *testing.T) {
	run := func() []int {
		d := faultDevice(t, 8)
		d.SetFaults(NewInjector(FaultPolicy{Seed: 42, Rules: []FaultRule{
			{Kind: FaultError, FirstPage: 0, LastPage: -1, Probability: 0.4, Transient: true},
		}}))
		var failed []int
		buf := make([]byte, 128)
		for p := 0; p < 8; p++ {
			if err := d.ReadPage(p, buf); err != nil {
				failed = append(failed, p)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("p=0.4 over 8 pages should fail at least once with seed 42")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic fault sequence: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic fault sequence: %v vs %v", a, b)
		}
	}
}

func TestFaultCountBudget(t *testing.T) {
	d := faultDevice(t, 4)
	in := NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 1, LastPage: 1, Count: 2, Transient: true},
	}})
	d.SetFaults(in)
	buf := make([]byte, 128)
	for i := 0; i < 2; i++ {
		if err := d.ReadPage(1, buf); err == nil {
			t.Fatalf("attempt %d: expected injected fault", i)
		}
	}
	if err := d.ReadPage(1, buf); err != nil {
		t.Fatalf("budget exhausted, read should succeed: %v", err)
	}
	if in.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", in.Injected())
	}
}

func TestFaultPageRange(t *testing.T) {
	d := faultDevice(t, 6)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: 2, LastPage: 3, Transient: true},
	}}))
	buf := make([]byte, 128)
	for p := 0; p < 6; p++ {
		err := d.ReadPage(p, buf)
		inRange := p >= 2 && p <= 3
		if inRange && err == nil {
			t.Fatalf("page %d in fault range should fail", p)
		}
		if !inRange && err != nil {
			t.Fatalf("page %d outside fault range failed: %v", p, err)
		}
	}
}

func TestFaultLatency(t *testing.T) {
	d := faultDevice(t, 2)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultLatency, FirstPage: 0, LastPage: -1, Latency: 20 * time.Millisecond},
	}}))
	start := time.Now()
	if err := d.ReadPage(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("latency fault did not delay: %v", elapsed)
	}
}

// TestFaultLatencyHonoursCancel: an injected delay is a wait like any other —
// a canceled request leaves it at once, with the context's error and without
// the device booking a fault.
func TestFaultLatencyHonoursCancel(t *testing.T) {
	d := faultDevice(t, 2)
	d.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultLatency, FirstPage: 0, LastPage: -1, Latency: 5 * time.Second},
	}}))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	err := d.ReadPageCtx(ctx, 0, make([]byte, 128))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled delayed read returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled read slept through the injected delay: %v", elapsed)
	}
	if IsPermanent(err) || IsTransient(err) {
		t.Fatalf("cancellation classified as a device fault: %v", err)
	}
	if st := d.Stats(); st.PermanentErrors != 0 || st.TransientErrors != 0 {
		t.Fatalf("cancellation counted as a device error: %+v", st)
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	rp := RetryPolicy{MaxRetries: 8, Backoff: time.Millisecond, MaxBackoff: 16 * time.Millisecond}.withDefaults()
	for attempt := 0; attempt < 8; attempt++ {
		d1 := rp.delay(7, attempt)
		d2 := rp.delay(7, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 <= 0 || d1 > rp.MaxBackoff+rp.MaxBackoff/2 {
			t.Fatalf("attempt %d: delay %v outside (0, 1.5*MaxBackoff]", attempt, d1)
		}
	}
	if rp.delay(3, 1) == rp.delay(4, 1) && rp.delay(3, 2) == rp.delay(4, 2) {
		t.Fatal("jitter should vary across pages")
	}
}

// TestPointFileFetchWithFaults checks the typed errors and retry policy flow
// through PointFile.Fetch, and that SetFaults(nil) restores clean reads.
func TestPointFileFetchWithFaults(t *testing.T) {
	ds := testDataset(t, 64, 16)
	pf, err := BuildPointFile(filepath.Join(t.TempDir(), "pf"), ds, nil, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()

	page, err := pf.PageOf(0)
	if err != nil {
		t.Fatal(err)
	}
	pf.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: page, LastPage: page, Transient: false},
	}}))
	if _, err := pf.Fetch(0, nil); !IsPermanent(err) {
		t.Fatalf("want permanent PageError through Fetch, got %v", err)
	}

	pf.SetFaults(nil)
	got, err := pf.Fetch(0, nil)
	if err != nil {
		t.Fatalf("after clearing faults: %v", err)
	}
	want := ds.Point(0)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("dim %d: got %v want %v", j, got[j], want[j])
		}
	}

	// Transient fault + retry: Fetch succeeds and data is intact.
	pf.ResetStats()
	pf.SetFaults(NewInjector(FaultPolicy{Rules: []FaultRule{
		{Kind: FaultError, FirstPage: page, LastPage: page, Count: 1, Transient: true},
	}}))
	pf.SetRetry(RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond})
	got, err = pf.Fetch(0, nil)
	if err != nil {
		t.Fatalf("retry through Fetch: %v", err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("post-retry dim %d: got %v want %v", j, got[j], want[j])
		}
	}
	st := pf.Stats()
	if st.PageReads != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
