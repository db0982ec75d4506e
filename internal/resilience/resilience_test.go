package resilience

import (
	"errors"
	"testing"
)

// TestBreakerStickyTrip: FailureThreshold consecutive failures open the
// breaker and calls are rejected until the cooldown elapses.
func TestBreakerStickyTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 3})
	if b.State() != Closed {
		t.Fatal("breaker must start closed")
	}
	b.Failure()
	if b.State() != Closed {
		t.Fatal("one failure below threshold must not trip")
	}
	b.Failure()
	if b.State() != Open || b.Trips() != 1 {
		t.Fatalf("state=%v trips=%d, want open/1", b.State(), b.Trips())
	}
	// Cooldown: the next three calls are rejected.
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("call %d during cooldown must be rejected", i)
		}
	}
	if b.Rejected() != 3 {
		t.Fatalf("rejected = %d, want 3", b.Rejected())
	}
}

// TestBreakerHalfOpenProbe: after the cooldown the next call is admitted as
// a probe; success closes the breaker, failure re-opens it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 2})
	b.Failure()
	if b.State() != Open {
		t.Fatal("threshold-1 breaker must trip on first failure")
	}
	if b.Allow() || b.Allow() {
		t.Fatal("cooldown calls must be rejected")
	}
	if !b.Allow() {
		t.Fatal("post-cooldown call must be admitted as the half-open probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Probe fails: straight back to open, counted as a second trip.
	b.Failure()
	if b.State() != Open || b.Trips() != 2 {
		t.Fatalf("state=%v trips=%d, want open/2", b.State(), b.Trips())
	}
	// Run the cooldown again; this time the probe succeeds.
	if b.Allow() || b.Allow() {
		t.Fatal("second cooldown must reject")
	}
	if !b.Allow() {
		t.Fatal("second probe must be admitted")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after successful probe", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
}

// TestBreakerSuccessResetsFailureStreak: the threshold counts *consecutive*
// failures; an interleaved success resets the streak.
func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 1})
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("non-consecutive failures must not trip")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("two consecutive failures must trip")
	}
}

func TestBreakerStateString(t *testing.T) {
	for state, want := range map[BreakerState]string{Closed: "closed", Open: "open", HalfOpen: "half-open"} {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", state, got, want)
		}
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	err := Recover(func() error { panic("worker died") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "worker died" {
		t.Fatalf("Value = %v, want the panic payload", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack trace must be captured")
	}
	if pe.Error() != "recovered panic: worker died" {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestRecoverPassesThroughResults(t *testing.T) {
	if err := Recover(func() error { return nil }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	boom := errors.New("boom")
	if err := Recover(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the returned error unchanged", err)
	}
}
