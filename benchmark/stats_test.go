package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in Python.
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 5}, [3]float64{1, 5, 10}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, want %v", got, (8.25-2.75)/5.5)
	}
	if got := spread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

// ramp returns 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		ok   bool
		pct  float64
		want float64
	}{
		{0, false, 0, 0},
		{10, false, 0, 0},
		{11, false, 0, 0},
		{19, false, 0, 0},
		{20, true, 50, 10},
		{99, true, 50, 50},
		{100, true, 90, 90},
		{999, true, 90, 900},
		{1000, true, 99, 990},
		{8000, true, 99, 7920},
		{10000, true, 99.9, 9990},
	} {
		pct, v, ok := tail(ramp(tc.n))
		if ok != tc.ok || (ok && (pct != tc.pct || v != tc.want)) {
			t.Errorf("tail(n=%d) = p%v %v %v, want p%v %v %v", tc.n, pct, v, ok, tc.pct, tc.want, tc.ok)
		}
		if ok {
			if _, beyond := percentile(ramp(tc.n), pct); beyond < 10 {
				t.Errorf("tail(n=%d) chose p%v with only %d samples beyond it", tc.n, pct, beyond)
			}
		}
	}
}

func TestWithSelfTimesSubtractsTheUnionOfChildren(t *testing.T) {
	list := withSelfTimes([]span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 70},  // overlaps span 2
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 3, StartNS: 40, EndNS: 45},
	})
	for id, want := range map[int64]int64{1: 100 - 60 - 10, 2: 40, 3: 35, 4: 30, 5: 5} {
		if got := list[id-1].SelfNS; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}
