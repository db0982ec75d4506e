package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"nvscavenger/internal/runner"
)

// reportText renders the exhibits whose runs fan out, in a fixed order, so
// two sessions can be compared byte-for-byte.
func reportText(t *testing.T, s *Session) string {
	t.Helper()
	var b strings.Builder
	t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable1(t1))
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable5(t5))
	cdfs, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatFigure7(cdfs))
	t6, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable6(t6))
	f12, err := s.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatFigure12(f12))
	plans, err := s.Placement()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatPlacement(plans))
	return b.String()
}

// TestParallelMatchesSequential: the engine's fan-out must not change a
// single byte of any exhibit — runs are deterministic and results are
// collected in input order regardless of completion order.
func TestParallelMatchesSequential(t *testing.T) {
	seq := NewSession(WithScale(0.05), WithIterations(3), WithJobs(1))
	par := NewSession(WithScale(0.05), WithIterations(3), WithJobs(8))
	if err := par.Warm(); err != nil {
		t.Fatal(err)
	}
	a, b := reportText(t, seq), reportText(t, par)
	if a != b {
		t.Fatalf("parallel report differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestSingleFlightSharesRuns: concurrent exhibit calls needing the same
// instrumented run must execute it exactly once.
func TestSingleFlightSharesRuns(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(2), WithJobs(4))
	var wg sync.WaitGroup
	runs := make([]*Run, 8)
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Fast("gtc")
			if err != nil {
				t.Error(err)
				return
			}
			runs[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(runs); i++ {
		if runs[i] != runs[0] {
			t.Fatal("concurrent Fast calls returned distinct runs")
		}
	}
	m := s.Metrics()
	if m.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", m.Misses)
	}
	if m.Hits != uint64(len(runs)-1) {
		t.Fatalf("hits = %d, want %d", m.Hits, len(runs)-1)
	}
	if len(m.Runs) != 1 || m.Runs[0].Refs == 0 {
		t.Fatalf("run metrics = %+v (want one run with observed refs)", m.Runs)
	}
}

// TestCancellationMidSweep: cancelling the session context after the first
// completed run aborts the rest of the sweep with the context's error.
func TestCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewSession(
		WithScale(0.05), WithIterations(2), WithJobs(1),
		WithContext(ctx),
		WithProgress(func(ev runner.Event) {
			if ev.Kind == runner.EventDone {
				cancel() // first completed run kills the sweep
			}
		}),
	)
	err := s.Warm()
	if err == nil {
		t.Fatal("Warm must fail once the context is cancelled")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	m := s.Metrics()
	if len(m.Runs) >= len(AppNames)+1 {
		t.Fatalf("all %d runs completed despite cancellation", len(m.Runs))
	}
}

// TestWithApps restricts the fan-out set.
func TestWithApps(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(2), WithApps("gtc", "s3d"))
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].App != "gtc" || rows[1].App != "s3d" {
		t.Fatalf("rows = %+v", rows)
	}
	// Figure 7's fixed list intersects the configured set.
	cdfs, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs) != 1 || cdfs["s3d"] == nil {
		t.Fatalf("figure 7 apps = %d", len(cdfs))
	}
}
