package main

import (
	"math"
	"slices"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// for an even count, and NaN for no values.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points of xs by the rule of Python's
// statistics.quantiles(xs, n=4) with its default "exclusive" method, the
// rule the benchmark's consumers apply to a set of results.  One value is
// all three quartiles; no values gives NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// best returns the smallest value of xs when lower is better, else the
// largest; NaN for no values.
func best(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if better == "lower" {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}

// spread is the distance between the first and third quartile of xs as a
// share of their median: the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentiles are the candidate tail cut points, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tail returns the highest candidate percentile of xs that has at least
// ten samples beyond it, with its value; ok is false when no candidate
// qualifies, which includes every n below 11.
func tail(xs []float64) (pct, v float64, ok bool) {
	for _, p := range tailPercentiles {
		pv, beyond := percentile(xs, p)
		if beyond < 10 {
			break
		}
		pct, v, ok = p, pv, true
	}
	return pct, v, ok
}

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie beyond it (NaN and 0 for no samples).
func percentile(xs []float64, p float64) (v float64, beyond int) {
	d := sorted(xs)
	if len(d) == 0 {
		return math.NaN(), 0
	}
	// The epsilon keeps p99.9 of 10000 at rank 9990, not 9991.
	rank := max(int(math.Ceil(p*float64(len(d))/100-1e-9)), 1)
	return d[rank-1], len(d) - rank
}

// millis converts d to float milliseconds.
func millis(d time.Duration) float64 { return d.Seconds() * 1e3 }
