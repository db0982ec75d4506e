package runner

import (
	"context"
	"errors"
	"testing"
)

// TestDoRecoversWorkerPanic: a panicking run must surface as an error on
// that run alone — the engine (and the sweep above it) keeps going.
func TestDoRecoversWorkerPanic(t *testing.T) {
	e := New(Config{Jobs: 2})
	_, err := e.Do(context.Background(), key("gtc"), func(ctx context.Context) (any, uint64, error) {
		panic("assertion failed")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *PanicError", err)
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

// TestCollectSingleErrorKeepsIdentity: a failed item's error comes back
// at its index as the identical value (not wrapped or joined).
func TestCollectSingleErrorKeepsIdentity(t *testing.T) {
	boom := errors.New("boom")
	_, errs := Collect(context.Background(), []int{0, 1, 2}, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return i, nil
	})
	if errs[1] != boom {
		t.Fatalf("errs[1] = %#v, want the identical error value", errs[1])
	}
}

// TestCollectParentCancellation: a cancelled parent context reaches every
// item, and each item's cancellation is reported at its index.
func TestCollectParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := Collect(ctx, []int{0, 1}, func(ctx context.Context, i int) (int, error) {
		return 0, ctx.Err()
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

// TestCollectKeepsSurvivors: no sibling cancellation — an item still
// running after another has failed keeps a live context, and its result
// survives next to the failure.
func TestCollectKeepsSurvivors(t *testing.T) {
	boom := errors.New("boom")
	failed := make(chan struct{})
	out, errs := Collect(context.Background(), []int{0, 1}, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			defer close(failed)
			return 0, boom
		}
		<-failed
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 10, nil
	})
	if errs[0] != boom || errs[1] != nil {
		t.Fatalf("errs = %v, want [boom <nil>]", errs)
	}
	if out[1] != 10 {
		t.Fatalf("out[1] = %d, want the survivor's result", out[1])
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
