package experiments

import (
	"math"
	"testing"
)

// TestScaleInvariance: the calibration targets are properties of the access
// pattern's *shape*, so they must hold across problem scales — otherwise
// the reproduction would only work at the scale it was tuned at.
func TestScaleInvariance(t *testing.T) {
	small := NewSession(WithScale(0.08), WithIterations(6))
	large := NewSession(WithScale(0.35), WithIterations(6))

	rowsS, err := small.Table5()
	if err != nil {
		t.Fatal(err)
	}
	rowsL, err := large.Table5()
	if err != nil {
		t.Fatal(err)
	}
	byApp := func(rows []Table5Row) map[string]Table5Row {
		m := map[string]Table5Row{}
		for _, r := range rows {
			m[r.App] = r
		}
		return m
	}
	s, l := byApp(rowsS), byApp(rowsL)
	for _, app := range AppNames {
		// Ratios within 20% of each other across a 4.4x size change.
		if rel := math.Abs(s[app].SteadyRatio-l[app].SteadyRatio) / l[app].SteadyRatio; rel > 0.20 {
			t.Errorf("%s stack ratio varies %.0f%% across scales (%.2f vs %.2f)",
				app, rel*100, s[app].SteadyRatio, l[app].SteadyRatio)
		}
		// Reference shares within 6 percentage points.
		if diff := math.Abs(s[app].ReferencePct - l[app].ReferencePct); diff > 6 {
			t.Errorf("%s stack share varies %.1f points across scales (%.1f vs %.1f)",
				app, diff, s[app].ReferencePct, l[app].ReferencePct)
		}
	}
}

// TestIterationCountInvariance: running 5 vs 10 iterations must not change
// the steady-state stack metrics (only first-iteration effects differ).
func TestIterationCountInvariance(t *testing.T) {
	five := NewSession(WithScale(0.1), WithIterations(5))
	ten := NewSession(WithScale(0.1), WithIterations(10))
	r5, err := five.Table5()
	if err != nil {
		t.Fatal(err)
	}
	r10, err := ten.Table5()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r5 {
		a, b := r5[i], r10[i]
		if a.App != b.App {
			t.Fatalf("row order mismatch")
		}
		if rel := math.Abs(a.SteadyRatio-b.SteadyRatio) / b.SteadyRatio; rel > 0.10 {
			t.Errorf("%s steady ratio drifts with iteration count: %.2f vs %.2f",
				a.App, a.SteadyRatio, b.SteadyRatio)
		}
	}
}
