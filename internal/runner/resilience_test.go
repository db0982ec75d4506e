package runner

import (
	"context"
	"errors"
	"testing"

	"nvscavenger/internal/resilience"
)

// TestDoRecoversWorkerPanic: a panicking run must surface as an error on
// that run alone — the engine (and the sweep above it) keeps going.
func TestDoRecoversWorkerPanic(t *testing.T) {
	e := New(Config{Jobs: 2})
	_, err := e.Do(context.Background(), key("gtc"), func(ctx context.Context) (any, uint64, error) {
		panic("assertion failed")
	})
	var pe *resilience.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *resilience.PanicError", err)
	}
	if pe.Value != "assertion failed" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if v, _ := e.Registry().Snapshot().Counter("runner_panics_recovered_total"); v != 1 {
		t.Fatalf("runner_panics_recovered_total = %d, want 1", v)
	}
	// The engine survives: the next run on the same key executes cleanly.
	v, err := e.Do(context.Background(), key("gtc"), func(ctx context.Context) (any, uint64, error) {
		return "ok", 1, nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("post-panic run: v=%v err=%v", v, err)
	}
}

// TestCollectJoinsSiblingErrors is the regression test for the lost-error
// bug: item "a" fails first and cancels the context; item "b" then fails
// for its *own* reason.  Both failures must be visible in the returned
// error — before the fix, b's error was silently discarded.
func TestCollectJoinsSiblingErrors(t *testing.T) {
	errA := errors.New("failure A")
	errB := errors.New("failure B")
	bReady := make(chan struct{})
	_, err := Collect(context.Background(), []string{"a", "b"}, func(ctx context.Context, item string) (int, error) {
		if item == "a" {
			<-bReady // b is running and will observe the cancellation
			return 0, errA
		}
		close(bReady)
		<-ctx.Done() // woken by a's failure...
		return 0, errB // ...but fails with its own error, not ctx.Err()
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want it to include %v", err, errA)
	}
	if !errors.Is(err, errB) {
		t.Fatalf("err = %v, want it to include the sibling failure %v", err, errB)
	}
}

// TestCollectSingleErrorKeepsIdentity: with exactly one real failure the
// error comes back unwrapped (not needlessly joined).
func TestCollectSingleErrorKeepsIdentity(t *testing.T) {
	boom := errors.New("boom")
	_, err := Collect(context.Background(), []int{0, 1, 2}, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if err != boom {
		t.Fatalf("err = %#v, want the identical error value", err)
	}
}

// TestCollectParentCancellation: when every failure is a cancellation (the
// parent context died), Collect still reports it.
func TestCollectParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Collect(ctx, []int{0, 1}, func(ctx context.Context, i int) (int, error) {
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCollectPartialKeepsSurvivors: no sibling cancellation — one failed
// item leaves every other result intact, with errors reported per index.
func TestCollectPartialKeepsSurvivors(t *testing.T) {
	boom := errors.New("boom")
	out, errs := CollectPartial(context.Background(), []int{0, 1, 2, 3}, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i * 10, nil
	})
	if len(out) != 4 || len(errs) != 4 {
		t.Fatalf("lengths = %d/%d", len(out), len(errs))
	}
	for i, want := range []int{0, 10, 0, 30} {
		if out[i] != want {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
	for i, wantErr := range []error{nil, nil, boom, nil} {
		if !errors.Is(errs[i], wantErr) {
			t.Errorf("errs[%d] = %v, want %v", i, errs[i], wantErr)
		}
	}
}
