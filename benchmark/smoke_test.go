package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// tinySuite runs every workload and probe at a size that takes a few
// seconds in all.
var tinySuite = suite{
	units: map[string]sizes{
		"report": {
			timed: params{Scale: 0.05, Iterations: 1},
			setup: params{Scale: 0.05, Iterations: 1},
		},
		"run": {
			timed: params{Scale: 0.05, Iterations: 2},
			setup: params{Scale: 0.05, Iterations: 1},
		},
		"sampled": {
			timed: params{Scale: 0.05, Iterations: 2, SampleRate: 8},
			setup: params{Scale: 0.05, Iterations: 1, SampleRate: 8},
		},
		"served": {
			timed: params{Scale: 0.05, ColdIterations: []int{1, 2}, WarmJobs: 24},
			setup: params{Scale: 0.05, ColdIterations: []int{1}, WarmJobs: 4},
		},
	},
	layer:          params{Scale: 0.05, Iterations: 1, SampleRate: 8},
	layerReps:      1,
	probeReport:    params{Scale: 0.05, Iterations: 1},
	probeServed:    params{Scale: 0.05, ColdIterations: []int{1}, WarmJobs: 4},
	setupReps:      1,
	minUnits:       1,
	journalAppends: 20,
}

// tinyPins are the pins at tinySuite's sizes, computed once.
var tinyPins = sync.OnceValues(func() (*pins, error) { return makePins(tinySuite) })

// freshTinyPins returns a copy of tinyPins the caller may modify.
func freshTinyPins(t *testing.T) *pins {
	t.Helper()
	p, err := tinyPins()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var c pins
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// sizes against pins taken at those sizes: every output must check, and
// the contract line must carry exactly the declared metrics as finite
// numbers.
func TestSmokeAllWorkloads(t *testing.T) {
	p := freshTinyPins(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				t.Parallel()
				var errw bytes.Buffer
				cfg := config{workload: name, seed: 3, seconds: 0.001, trace: trace, suite: tinySuite, pins: p, errw: &errw}
				if trace {
					cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				res, err := measure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, errw.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if line := summary(res); len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics on the contract line, want %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
						t.Errorf("metric %s = %+v (present %v)", d.Name, m, ok)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(cfg.traceOut); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

// TestPinMismatchCountsAsFailure corrupts one pin per workload and expects
// the run to report the mismatch instead of passing.
func TestPinMismatchCountsAsFailure(t *testing.T) {
	corrupt := map[string]func(p *pins){
		"report": func(p *pins) { p.Report.SHA256 = "0" },
		"run": func(p *pins) {
			f := p.Run.Runs["gtc/fast"]
			f.L2Misses++
			p.Run.Runs["gtc/fast"] = f
		},
		"sampled": func(p *pins) { p.Sampled.Refs["cam"]++ },
		"served":  func(p *pins) { p.Served.Specs[0].SHA256 = "0" },
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := freshTinyPins(t)
			corrupt[name](p)
			var errw bytes.Buffer
			res, err := measure(config{workload: name, seed: 3, seconds: 0.001, suite: tinySuite, pins: p, errw: &errw})
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Errorf("a corrupted pin passed (attempted %d, failed %d)", res.Attempted, res.Failed)
			}
		})
	}
}

// TestReportPathReproducesGolden renders the report workload's unit, both
// untraced and traced, at the nvreport golden sizes with one worker: the
// bytes must be the golden report's.
func TestReportPathReproducesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "cmd", "nvreport", "testdata", "golden_report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var p pins
	p.Report.SHA256 = digest(golden)
	var errw bytes.Buffer
	w := &reportWorkload{pins: &p, errw: &errw}
	for _, sp := range []*spans{nil, newSpans()} {
		if u := w.unit(params{Scale: 0.05, Iterations: 3}, true, sp); u.failed != 0 || u.attempted != 1 {
			t.Errorf("traced=%v: the report diverged from the golden report: %s", sp != nil, errw.String())
		}
	}
}

func TestEmbeddedPinsMatchTheFullSuite(t *testing.T) {
	if _, err := loadPins(fullSuite); err != nil {
		t.Fatal(err)
	}
}

func TestStripGenerated(t *testing.T) {
	for in, want := range map[string]string{
		"head\ngenerated 2026-01-01T00:00:00Z\n\nbody\n": "head\n\nbody\n",
		"head\n\nbody\n": "head\n\nbody\n",
		"head":           "head",
	} {
		if got := string(stripGenerated([]byte(in))); got != want {
			t.Errorf("stripGenerated(%q) = %q, want %q", in, got, want)
		}
	}
}
