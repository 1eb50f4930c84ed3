// Package resil is the unified RPC resilience layer: per-message-class
// retry policies with capped exponential backoff and seeded jitter, a
// per-endpoint circuit breaker, a bounded per-client dedup window giving
// servers exactly-once semantics under duplication and retry, and a
// server-side admission gate that sheds load instead of queueing without
// bound.
//
// Everything is driven through env.Ctx — backoff sleeps use the virtual
// clock and jitter draws come from the environment's seeded random source —
// so under simulation the full retry schedule is a deterministic function
// of TELL_SEED. The Retrier folds every scheduled retry into an FNV-64a
// hash; two runs with the same seed must produce identical hashes.
package resil

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"tell/internal/env"
	"tell/internal/sanitize"
	"tell/internal/trace"
	"tell/internal/transport"
	"tell/internal/wire"
)

// Class partitions RPCs into the message classes of the resilience policy
// table. Reads can retry aggressively; writes retry only when paired with
// idempotency tokens; pings must not retry at all (a lost ping IS the
// signal the failure detectors count).
type Class int

const (
	// ClassRead is read-only storage traffic (Get/Scan).
	ClassRead Class = iota
	// ClassWrite is mutating storage traffic, made safe to retry by
	// idempotency tokens and the server-side dedup Window.
	ClassWrite
	// ClassCM is commit-manager traffic (start/finished groups).
	ClassCM
	// ClassReplicate is master-to-replica mutation shipping (the apply
	// path is idempotent by stamp, so retries are safe without tokens).
	ClassReplicate
	// ClassPing is failure-detector probing: never retried, a miss is
	// information.
	ClassPing
	// ClassMeta is management traffic (partition-map fetches, transfers).
	ClassMeta

	NClasses // number of classes
)

var classNames = [NClasses]string{"read", "write", "cm", "replicate", "ping", "meta"}

func (c Class) String() string {
	if c < 0 || c >= NClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Policy is the retry budget for one message class.
type Policy struct {
	// Attempts is the maximum number of tries including the first.
	// 1 disables retries.
	Attempts int
	// Deadline bounds the total time Do may spend across attempts and
	// backoffs; 0 means unbounded (the attempt budget alone governs).
	Deadline time.Duration
	// BaseBackoff is the backoff before the first retry; each further
	// retry doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
}

// jitterFrac adds a uniform random [0, jitterFrac) fraction of each backoff
// on top, decorrelating retry storms. Drawn from ctx.Rand() so it is
// deterministic under simulation.
const jitterFrac = 0.5

// DefaultPolicies is the policy table tuned for the simulated cluster: the
// per-attempt transport timeout is expected to be a few milliseconds, so
// backoffs start well below it and cap near it.
func DefaultPolicies() [NClasses]Policy {
	return [NClasses]Policy{
		ClassRead:      {Attempts: 5, Deadline: 100 * time.Millisecond, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond},
		ClassWrite:     {Attempts: 5, Deadline: 100 * time.Millisecond, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond},
		ClassCM:        {Attempts: 4, Deadline: 100 * time.Millisecond, BaseBackoff: 300 * time.Microsecond, MaxBackoff: 5 * time.Millisecond},
		ClassReplicate: {Attempts: 4, Deadline: 50 * time.Millisecond, BaseBackoff: 200 * time.Microsecond, MaxBackoff: 2 * time.Millisecond},
		ClassPing:      {Attempts: 1},
		ClassMeta:      {Attempts: 4, Deadline: 100 * time.Millisecond, BaseBackoff: 500 * time.Microsecond, MaxBackoff: 10 * time.Millisecond},
	}
}

// FastPolicies returns the policy table scaled for a fast fabric whose
// per-attempt transport timeout is timeout. The defaults assume a
// kernel-TCP-scale timeout of a few milliseconds; on a microsecond-scale
// simulated fabric a dropped leg should cost roughly one timeout plus one
// short backoff, not a millisecond-scale pause. Backoffs start at a
// quarter of the timeout and cap at four timeouts; attempt counts and
// deadlines keep their defaults (ClassPing stays single-attempt).
func FastPolicies(timeout time.Duration) [NClasses]Policy {
	p := DefaultPolicies()
	for c := range p {
		if p[c].Attempts <= 1 {
			continue
		}
		p[c].BaseBackoff = timeout / 4
		p[c].MaxBackoff = timeout * 4
	}
	return p
}

// ErrCircuitOpen reports that the endpoint's circuit breaker is open: the
// failure detector (or a run of consecutive failures) has declared it dead
// and the client should fail over instead of waiting out a timeout.
var ErrCircuitOpen = errors.New("resil: circuit open")

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops retrying and returns it immediately.
// Use it for outcomes where a retry cannot help (bad request, closed
// transport) or must not happen (non-idempotent operation without a token).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err was wrapped by Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Retrier executes RPCs under the policy table, consulting an optional
// breaker set and recording every scheduled retry into a deterministic
// schedule hash. One Retrier is shared by all of a client's activities;
// its internal state is mutex-protected (no blocking env operations happen
// under the lock).
type Retrier struct {
	Policies [NClasses]Policy
	// Breakers, when non-nil, short-circuits attempts against endpoints
	// whose breaker is open.
	Breakers *BreakerSet

	mu      sanitize.Mutex
	hash    uint64 // FNV-64a over (class, addr, attempt, backoff, now)
	retries uint64
}

// NewRetrier returns a Retrier with the default policy table and no
// breaker set.
func NewRetrier() *Retrier {
	r := &Retrier{Policies: DefaultPolicies(), hash: fnvOffset}
	r.mu.SetName("resil.Retrier.mu")
	return r
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Do runs fn under the class's retry policy against addr. fn receives the
// 0-based attempt number; any non-nil return is retried with backoff until
// the attempt or deadline budget runs out, unless wrapped with Permanent.
// The final attempt's error (unwrapped from Permanent) is returned.
//
// Pings and other Attempts:1 classes never retry: Do degrades to a single
// guarded call.
func (r *Retrier) Do(ctx env.Ctx, class Class, addr string, fn func(attempt int) error) error {
	p := r.Policies[class]
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	start := ctx.Now()
	var err error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if r.Breakers != nil && !r.Breakers.Allow(addr, ctx.Now()) {
			if err == nil {
				err = ErrCircuitOpen
			}
			return unwrapPermanent(err)
		}
		err = fn(attempt)
		if err == nil {
			if r.Breakers != nil {
				r.Breakers.Success(addr)
			}
			return nil
		}
		if r.Breakers != nil {
			r.Breakers.Failure(addr, ctx.Now())
		}
		if IsPermanent(err) || attempt == p.Attempts-1 {
			break
		}
		backoff := r.backoff(ctx, &p, attempt)
		if p.Deadline > 0 && ctx.Now()-start+backoff > p.Deadline {
			break
		}
		r.record(class, addr, attempt, backoff, ctx.Now())
		sc := ctx.Trace()
		sc.R.CounterAdd(ctx.Node().Name(), "resil/retries", 1)
		if sc.Agg != nil {
			prev := sc.Agg.Redirect
			sc.Agg.Redirect = trace.CompRetry
			ctx.Sleep(backoff)
			sc.Agg.Redirect = prev
		} else {
			ctx.Sleep(backoff)
		}
	}
	return unwrapPermanent(err)
}

// Call is the one way to send a request to a peer: it runs Do with every
// attempt a conn.RoundTrip of the identical bytes req, so a resend is
// indistinguishable from a duplicate and the peer's dedup window or
// apply-if-newer rule decides what runs. check, when non-nil, vets each
// response the way fn's result is treated in Do: nil accepts it, a
// Permanent error stops (an undecodable response, a refusal), any other
// error is retried (a shed request). retried reports whether the returned
// response answered a resend, whose first copy may already have been
// applied.
func (r *Retrier) Call(ctx env.Ctx, class Class, addr string, conn transport.Conn, req []byte,
	check func(resp []byte) error) (resp []byte, retried bool, err error) {
	err = r.Do(ctx, class, addr, func(attempt int) error {
		retried = attempt > 0
		var rtErr error
		if resp, rtErr = conn.RoundTrip(ctx, req); rtErr != nil {
			return rtErr
		}
		if check != nil {
			return check(resp)
		}
		return nil
	})
	return resp, retried, err
}

// pingReq is the failure detectors' probe.
var pingReq = []byte{byte(wire.KindPing)}

// Ping probes addr once under ClassPing, which allows exactly one attempt:
// one probe, one verdict (a retry inside a probe would count several misses
// per detector window). The probe still runs through Do so its outcome
// enters the breaker and the retry schedule like every other RPC.
func (r *Retrier) Ping(ctx env.Ctx, conns *transport.ConnSet, addr string) bool {
	conn, err := conns.Get(addr)
	if err != nil {
		return false
	}
	resp, _, err := r.Call(ctx, ClassPing, addr, conn, pingReq, nil)
	return err == nil && wire.PeekKind(resp) == wire.KindPong
}

func unwrapPermanent(err error) error {
	var p *permanentError
	if errors.As(err, &p) {
		return p.err
	}
	return err
}

// backoff computes the capped exponential backoff for the given attempt,
// with jitter from the environment's seeded random source.
func (r *Retrier) backoff(ctx env.Ctx, p *Policy, attempt int) time.Duration {
	b := p.BaseBackoff
	if b <= 0 {
		b = 100 * time.Microsecond
	}
	for i := 0; i < attempt && b < p.MaxBackoff; i++ {
		b *= 2
	}
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b + time.Duration(float64(b)*jitterFrac*ctx.Rand().Float64())
}

// record folds one scheduled retry into the deterministic schedule hash.
func (r *Retrier) record(class Class, addr string, attempt int, backoff time.Duration, now time.Duration) {
	r.mu.Lock()
	h := r.hash
	h = fnvByte(h, byte(class))
	for i := 0; i < len(addr); i++ {
		h = fnvByte(h, addr[i])
	}
	h = fnvU64(h, uint64(attempt))
	h = fnvU64(h, uint64(backoff))
	h = fnvU64(h, uint64(now))
	r.hash = h
	r.retries++
	r.mu.Unlock()
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// ScheduleHash returns the FNV-64a digest of every retry scheduled so far:
// (class, addr, attempt, backoff, virtual time) in schedule order. With the
// same TELL_SEED two runs must produce identical hashes.
func (r *Retrier) ScheduleHash() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hash
}

// Retries returns the number of retries scheduled so far.
func (r *Retrier) Retries() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// MergeSchedule folds another retrier's schedule digest into a combined
// fleet-level hash (order-independent across retriers: XOR of digests,
// sum of counts).
func MergeSchedule(rs []*Retrier) (hash uint64, retries uint64) {
	for _, r := range rs {
		if r == nil {
			continue
		}
		hash ^= r.ScheduleHash()
		retries += r.Retries()
	}
	return hash, retries
}

// fnvCheck guards the inlined constants against drift from hash/fnv.
var _ = func() struct{} {
	h := fnv.New64a()
	if h.Sum64() != fnvOffset {
		panic("resil: fnv offset mismatch")
	}
	return struct{}{}
}()
