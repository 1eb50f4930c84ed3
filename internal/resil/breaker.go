package resil

import (
	"time"

	"tell/internal/sanitize"
)

// Breaker is a per-endpoint circuit breaker. It opens after Threshold
// consecutive failures and stays open for Cooldown of virtual time; while
// open, Allow rejects immediately so clients stop burning transport
// timeouts against a dead endpoint and can fail over (reads route to
// replicas). After the cooldown one probe is admitted (half-open); its
// outcome closes the breaker or re-arms the cooldown.
//
// All methods take the caller's notion of now (ctx.Now()) so the breaker
// runs on the virtual clock and never reads wall time.
type Breaker struct {
	// Threshold is the number of consecutive failures that open the
	// breaker. <=0 disables it (Allow always true).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe.
	Cooldown time.Duration

	mu        sanitize.Mutex
	fails     int
	openUntil time.Duration // 0 = closed
}

// Allow reports whether a call may proceed. In the half-open state it
// admits exactly one probe per cooldown window: admitting re-arms
// openUntil so concurrent callers keep failing fast until the probe's
// outcome is known.
func (b *Breaker) Allow(now time.Duration) bool {
	if b.Threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil == 0 {
		return true
	}
	if now >= b.openUntil {
		b.openUntil = now + b.Cooldown // half-open: this caller is the probe
		return true
	}
	return false
}

// Open reports whether the breaker is currently open, without consuming
// the half-open probe slot. Clients use it to decide routing (e.g. send a
// read to a replica) before building a request.
func (b *Breaker) Open(now time.Duration) bool {
	if b.Threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openUntil != 0 && now < b.openUntil
}

// Success records a successful call, closing the breaker.
func (b *Breaker) Success() {
	if b.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails = 0
	b.openUntil = 0
	b.mu.Unlock()
}

// Failure records a failed call, opening the breaker once Threshold
// consecutive failures accumulate.
func (b *Breaker) Failure(now time.Duration) {
	if b.Threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.fails++
	if b.fails >= b.Threshold {
		b.openUntil = now + b.Cooldown
	}
	b.mu.Unlock()
}

// BreakerSet is a lazily-populated map of endpoint address to Breaker,
// sharing one configuration.
type BreakerSet struct {
	// Threshold and Cooldown configure every breaker in the set.
	Threshold int
	Cooldown  time.Duration

	mu sanitize.Mutex
	m  map[string]*Breaker
}

// NewBreakerSet returns a set whose breakers open after threshold
// consecutive failures and cool down for the given duration.
func NewBreakerSet(threshold int, cooldown time.Duration) *BreakerSet {
	s := &BreakerSet{Threshold: threshold, Cooldown: cooldown, m: make(map[string]*Breaker)}
	s.mu.SetName("resil.BreakerSet.mu")
	return s
}

func (s *BreakerSet) get(addr string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[addr]
	if b == nil {
		b = &Breaker{Threshold: s.Threshold, Cooldown: s.Cooldown}
		b.mu.SetName("resil.Breaker.mu")
		s.m[addr] = b
	}
	return b
}

// Allow reports whether a call to addr may proceed (see Breaker.Allow).
func (s *BreakerSet) Allow(addr string, now time.Duration) bool {
	if s == nil {
		return true
	}
	return s.get(addr).Allow(now)
}

// Open reports whether addr's breaker is open (see Breaker.Open).
func (s *BreakerSet) Open(addr string, now time.Duration) bool {
	if s == nil {
		return false
	}
	return s.get(addr).Open(now)
}

// Success records a success against addr.
func (s *BreakerSet) Success(addr string) {
	if s == nil {
		return
	}
	s.get(addr).Success()
}

// Failure records a failure against addr.
func (s *BreakerSet) Failure(addr string, now time.Duration) {
	if s == nil {
		return
	}
	s.get(addr).Failure(now)
}
