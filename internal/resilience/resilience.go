// Package resilience holds the failure-handling primitives the simulation
// pipeline composes: a count-based circuit breaker and a panic-to-error
// recovery wrapper.
//
// The paper's §I motivation is the exascale *resiliency challenge* — the
// mean time between failures shrinks as the machine grows — and the
// follow-on NVM literature treats fault behaviour as a first-class axis of
// any persistent-memory study.  This package gives the rest of the tree
// one shared vocabulary for surviving injected (internal/faults) or real
// failures without giving up determinism: nothing here reads a wall clock
// or a global random source to make a decision.  Breaker transitions and
// recovery are pure functions of the call sequence, so a degraded run is
// byte-identical at jobs=1 and jobs=N.
package resilience

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// BreakerState is the circuit breaker's position.
type BreakerState uint8

const (
	// Closed passes calls through and counts consecutive failures.
	Closed BreakerState = iota
	// Open rejects calls until the cooldown elapses.
	Open
	// HalfOpen lets one probe call through to test the dependency.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "closed"
}

// BreakerConfig configures a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker open (default 1).
	FailureThreshold int
	// Cooldown is the number of calls rejected while open before the next
	// call is allowed through as a half-open probe (default 1).  The
	// breaker counts calls, not wall time, so chaos runs stay reproducible
	// across worker-pool sizes.
	Cooldown int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold < 1 {
		c.FailureThreshold = 1
	}
	if c.Cooldown < 1 {
		c.Cooldown = 1
	}
	return c
}

// Breaker is a deterministic count-based circuit breaker:
// closed → (FailureThreshold consecutive failures) → open →
// (Cooldown rejected calls) → half-open probe → closed on success,
// back to open on failure.  It is safe for concurrent use, though each
// pipeline buffer typically owns a private breaker.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    BreakerState
	fails    int // consecutive failures while closed
	cooled   int // calls rejected since the trip
	trips    uint64
	rejected uint64
}

// NewBreaker returns a closed Breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether a call may proceed.  While open it counts the
// rejection; once Cooldown rejections have accumulated the next call is
// admitted as the half-open probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.cooled >= b.cfg.Cooldown {
			b.state = HalfOpen
			return true
		}
		b.cooled++
		b.rejected++
		return false
	default:
		return true
	}
}

// Success records a successful call: it closes a half-open breaker and
// clears the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == HalfOpen {
		b.state = Closed
	}
}

// Failure records a failed call: a half-open probe failure re-opens the
// breaker immediately; a closed breaker trips once FailureThreshold
// consecutive failures accumulate.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.trip()
	case Closed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// trip must be called with the lock held.
func (b *Breaker) trip() {
	b.state = Open
	b.trips++
	b.cooled = 0
	b.fails = 0
}

// State returns the breaker's position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Rejected returns how many calls were refused while open.
func (b *Breaker) Rejected() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// PanicError is a panic converted to an error by Recover.  The recovered
// value and the goroutine stack at the panic site are preserved so chaos
// reports can show where a worker died.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the recovered value.
func (e *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.Value) }

// Recover runs fn, converting a panic into a *PanicError.  memtrace's
// invariant panics (double free, stack-discipline violations) stay panics
// at their site; this wrapper is how the experiment engine contains them
// to the failing run instead of letting one bad worker kill a whole sweep.
func Recover(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}
