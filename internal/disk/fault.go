// Storage fault tolerance: typed page errors with a transient/permanent
// classification, deterministic fault injection, and bounded retry with
// exponential backoff. The whole refinement path of the paper lives on
// Trefine ≈ Tio·Crefine (Section 2.2), so this file is where a single flaky
// sector stops meaning a failed query: transient faults are retried with
// backoff, permanent ones surface as typed errors the engine and server can
// classify (retry vs. degrade vs. fail), and the injector makes every policy
// decision testable end-to-end without real broken hardware.
package disk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// PageError is the typed error of every failed page operation: which page,
// which operation, and whether the failure is transient (worth retrying) or
// permanent (the page is gone until the file is rebuilt).
type PageError struct {
	Page      int
	Op        string // "read" or "write"
	Transient bool
	Err       error
}

func (e *PageError) Error() string {
	class := "permanent"
	if e.Transient {
		class = "transient"
	}
	return fmt.Sprintf("disk: %s page %d: %s (%s)", e.Op, e.Page, e.Err, class)
}

func (e *PageError) Unwrap() error { return e.Err }

// IsTransient reports whether err is (or wraps) a transient PageError —
// the class worth retrying or answering with 503 + Retry-After.
func IsTransient(err error) bool {
	var pe *PageError
	return errors.As(err, &pe) && pe.Transient
}

// IsPermanent reports whether err is (or wraps) a permanent PageError —
// the class that justifies skipping a shard or quarantining a file.
func IsPermanent(err error) bool {
	var pe *PageError
	return errors.As(err, &pe) && !pe.Transient
}

// ErrInjected marks faults produced by an Injector; real device errors never
// wrap it, so tests can assert a failure came from the policy under test.
var ErrInjected = errors.New("injected fault")

// ErrTornRead marks an injected mid-file partial read: the device delivered
// a prefix of the page and then failed, leaving the tail of the buffer
// scribbled. ReadPage must propagate it — zero-padding here would silently
// corrupt refinement distances.
var ErrTornRead = fmt.Errorf("torn read: %w", ErrInjected)

// FaultKind selects what an injection rule does to a matching page read.
type FaultKind uint8

const (
	// FaultError fails the read outright (no bytes delivered).
	FaultError FaultKind = iota
	// FaultTorn delivers a prefix of the page, scribbles the rest, and fails
	// with a non-EOF error — the mid-file partial read a real disk produces.
	FaultTorn
	// FaultLatency delays the read by Latency, then lets it proceed.
	FaultLatency
)

// FaultRule is one injection rule. Rules are evaluated in order on every
// physical read attempt; the first rule that matches the page, passes its
// probability draw and has budget left fires.
type FaultRule struct {
	Kind FaultKind
	// FirstPage..LastPage is the inclusive page range the rule covers.
	// LastPage < 0 means "to the end of the device".
	FirstPage, LastPage int
	// Probability in (0,1) trips the rule on a seeded PRNG draw; 0 or ≥1
	// means "always".
	Probability float64
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Transient classifies the injected error (FaultError/FaultTorn).
	Transient bool
	// Latency is the added delay (FaultLatency).
	Latency time.Duration
	// TornBytes is how many bytes a FaultTorn delivers before failing
	// (default: half a page).
	TornBytes int
}

// FaultPolicy is a seeded set of injection rules. The same policy and seed
// reproduce the same fault sequence for the same read sequence.
type FaultPolicy struct {
	Seed  int64
	Rules []FaultRule
}

// Injector applies a FaultPolicy to a device's physical reads. Safe for
// concurrent use; the PRNG and per-rule budgets are mutex-guarded.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []FaultRule
	fired []int

	injected atomic.Int64
}

// NewInjector compiles a policy into an injector.
func NewInjector(p FaultPolicy) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(p.Seed)),
		rules: append([]FaultRule(nil), p.Rules...),
		fired: make([]int, len(p.Rules)),
	}
}

// Injected returns how many faults have fired so far.
func (in *Injector) Injected() int64 { return in.injected.Load() }

// match returns the first rule armed for page n, consuming one unit of its
// budget, or nil.
func (in *Injector) match(n int) *FaultRule {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.rules {
		r := &in.rules[i]
		if n < r.FirstPage || (r.LastPage >= 0 && n > r.LastPage) {
			continue
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && in.rng.Float64() >= r.Probability {
			continue
		}
		in.fired[i]++
		in.injected.Add(1)
		return r
	}
	return nil
}

// RetryPolicy bounds how a device retries transient page faults:
// MaxRetries extra attempts with exponential backoff from Backoff (default
// 1ms) capped at MaxBackoff (default 100ms), plus deterministic jitter up to
// +50% derived from the page and attempt — no shared PRNG on the read path.
type RetryPolicy struct {
	MaxRetries int
	Backoff    time.Duration
	MaxBackoff time.Duration
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.Backoff <= 0 {
		rp.Backoff = time.Millisecond
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = 100 * time.Millisecond
	}
	return rp
}

// delay returns the backoff before retry attempt (0-based), with the
// deterministic jitter mixed in.
func (rp RetryPolicy) delay(page, attempt int) time.Duration {
	d := rp.Backoff << uint(attempt)
	if d > rp.MaxBackoff || d <= 0 {
		d = rp.MaxBackoff
	}
	// splitmix-style hash of (page, attempt) → jitter in [0, d/2).
	z := uint64(page)*0x9e3779b97f4a7c15 + uint64(attempt) + 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0x94d049bb133111eb
	z ^= z >> 27
	return d + time.Duration(z%uint64(d/2+1))
}

// sleepCtx sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case — a canceled query stops retrying, or waiting out an injected
// delay, immediately.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d) // never canceled: no timer to allocate
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
