package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"
)

// params sizes one unit of a workload.  Which fields a workload reads is
// listed with the workload.
type params struct {
	Scale      float64 `json:"scale"`
	Iterations int     `json:"iterations"`
	// SampleRate is the sampled workload's Bernoulli rate; the -seed value
	// seeds the sampler.
	SampleRate uint64 `json:"sample_rate,omitempty"`
	// ColdIterations are the iteration counts of the served workload's
	// full-report cold jobs, one job each.
	ColdIterations []int `json:"cold_iterations,omitempty"`
	// WarmJobs is the number of cached jobs the served workload submits
	// after its cold phase.
	WarmJobs int `json:"warm_jobs,omitempty"`
}

// sizes are one workload's unit sizes: the timed unit, whose outputs are
// pinned, and the smaller unit one set-up repetition runs.
type sizes struct {
	timed, setup params
}

// suite sizes a whole invocation.
type suite struct {
	units map[string]sizes
	// layer sizes the traced layer pass (decomposition, cpusim, dramsim),
	// whose times are the best of layerReps repetitions.
	layer     params
	layerReps int
	// probeReport and probeServed size the span probes a traced run uses
	// for the experiments and served layers when its own workload does not
	// call them.
	probeReport, probeServed params
	// setupReps set-up repetitions give setup_s as their median.
	setupReps int
	// minUnits timed units run even when --seconds has already passed.
	minUnits int
	// journalAppends is the sample count of the journal commit probe.
	journalAppends int
}

// fullSuite is the benchmark as BENCHMARK.json runs it.
var fullSuite = suite{
	units: map[string]sizes{
		"report": {
			timed: params{Scale: 0.1, Iterations: 10},
			setup: params{Scale: 0.05, Iterations: 10},
		},
		"run": {
			timed: params{Scale: 0.25, Iterations: 10},
			setup: params{Scale: 0.05, Iterations: 10},
		},
		"sampled": {
			timed: params{Scale: 1.0, Iterations: 10, SampleRate: 64},
			setup: params{Scale: 0.25, Iterations: 10, SampleRate: 64},
		},
		"served": {
			timed: params{Scale: 0.05, ColdIterations: []int{7, 8, 9, 10}, WarmJobs: 1000},
			setup: params{Scale: 0.05, ColdIterations: []int{3}, WarmJobs: 200},
		},
	},
	layer:          params{Scale: 0.25, Iterations: 10, SampleRate: 64},
	layerReps:      2,
	probeReport:    params{Scale: 0.05, Iterations: 3},
	probeServed:    params{Scale: 0.05, ColdIterations: []int{3}, WarmJobs: 40},
	setupReps:      3,
	minUnits:       3,
	journalAppends: 1100,
}

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"report", "run", "sampled", "served"}

// unitResult is one closed-loop unit's measurement.
type unitResult struct {
	wall time.Duration
	// requests are the latencies of the requests a user waits for: the
	// report, each single run, or each warm served job.
	requests []time.Duration
	// refs are the true simulated references and refsWall the host time
	// they were simulated in.
	refs     uint64
	refsWall time.Duration
	// alloc is the bytes the unit allocated (runtime TotalAlloc).
	alloc uint64
	// attempted counts the unit's checked outputs (reports, runs, jobs);
	// failed counts errors, non-2xx responses, non-done jobs and pin
	// mismatches among them.
	attempted, failed int
	// layer holds per-layer samples (traced units only), keyed by
	// per-layer metric name.
	layer map[string][]float64
}

// fail records one failed output and reports why on errw.
func (u *unitResult) fail(errw io.Writer, format string, args ...any) {
	u.failed++
	fmt.Fprintf(errw, "FAIL: "+format+"\n", args...)
}

// addLayer appends per-layer samples.
func (u *unitResult) addLayer(name string, vs ...float64) {
	if u.layer == nil {
		u.layer = map[string][]float64{}
	}
	u.layer[name] = append(u.layer[name], vs...)
}

// workload runs closed-loop units of one traffic shape.
type workload interface {
	// unit runs one unit at size p on a fresh system under test.  With
	// check set its outputs are compared against the pins; sp records
	// spans (nil when untraced).
	unit(p params, check bool, sp *spans) unitResult
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is everything one workload run measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// UnitsS are the untraced timed units' wall times in run order.
	UnitsS []float64 `json:"units_s"`
	// Tail is the request-latency tail over every untraced unit: the
	// highest percentile with at least ten samples beyond it (absent when
	// no percentile qualifies).
	Tail *tailSummary `json:"tail,omitempty"`
	// DecompositionPct is the traced layer pass's sum check: floor +
	// attribution + cachesim + pipeline overhead per reference as a
	// percentage of Session.Fast wall per reference.
	DecompositionPct float64 `json:"decomposition_pct,omitempty"`
	Env              env     `json:"env"`
}

type tailSummary struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
}

// measure runs one workload: set-up repetitions, then timed units in a
// closed loop until cfg.seconds have passed (at least minUnits of them),
// then, when traced, the per-layer probes.  In a traced run every second
// unit records spans; the others give the untraced figures the tracing
// overhead is measured against.
func measure(cfg config) (runResult, error) {
	w, err := newWorkload(cfg.workload, cfg)
	if err != nil {
		return runResult{}, err
	}
	sz := cfg.suite.units[cfg.workload]
	res := runResult{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]metric{}, Env: currentEnv()}

	setups := make([]float64, 0, cfg.suite.setupReps)
	for i := 0; i < cfg.suite.setupReps; i++ {
		start := time.Now()
		u := w.unit(sz.setup, false, nil)
		setups = append(setups, time.Since(start).Seconds())
		res.Attempted += u.attempted
		res.Failed += u.failed
	}

	var sp *spans
	minUnits := cfg.suite.minUnits
	if cfg.trace {
		sp = newSpans()
		minUnits = max(minUnits, 2)
	}
	var plain, traced []unitResult
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start).Seconds() < cfg.seconds; i++ {
		usp := sp
		if i%2 == 0 {
			usp = nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		u := w.unit(sz.timed, true, usp)
		runtime.ReadMemStats(&after)
		u.alloc = after.TotalAlloc - before.TotalAlloc
		res.Attempted += u.attempted
		res.Failed += u.failed
		if usp == nil {
			plain = append(plain, u)
		} else {
			traced = append(traced, u)
		}
	}
	peakRSS := peakRSSMB()

	// A shared host takes cycles in bursts of seconds, so a run's median
	// unit moves with how much of the run a burst covered, while its
	// fastest unit repeats: the timing metrics take each run's best unit.
	var p50s, mrefs, allocs, reqs []float64
	for _, u := range plain {
		res.UnitsS = append(res.UnitsS, u.wall.Seconds())
		var lat []float64
		for _, d := range u.requests {
			lat = append(lat, millis(d))
		}
		p50s = append(p50s, median(lat))
		reqs = append(reqs, lat...)
		mrefs = append(mrefs, float64(u.refs)/u.refsWall.Seconds()/1e6)
		allocs = append(allocs, float64(u.alloc)/(1<<20))
	}
	put := func(name string, v float64, n int) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
	}
	put("setup_s", median(setups), len(setups))
	put("unit_s", best(res.UnitsS, "lower"), len(plain))
	put("p50_ms", best(p50s, "lower"), len(plain))
	put("mrefs_per_s", best(mrefs, "higher"), len(plain))
	put("alloc_mb", median(allocs), len(allocs))
	put("peak_rss_mb", peakRSS, 1)
	if pct, v, ok := tail(reqs); ok {
		res.Tail = &tailSummary{N: len(reqs), Percentile: pct, MS: v}
	}

	if cfg.trace {
		if err := measureLayers(cfg, &res, traced, sp); err != nil {
			return res, err
		}
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, sp.snapshot()); err != nil {
				return res, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measureLayers fills in the per-layer metrics of a traced run: the
// workload's own span samples, the span probes for layers the workload
// does not call, and the layer pass.
func measureLayers(cfg config, res *runResult, traced []unitResult, sp *spans) error {
	samples := map[string][]float64{}
	var tw []float64
	for _, u := range traced {
		tw = append(tw, u.wall.Seconds())
		for k, vs := range u.layer {
			samples[k] = append(samples[k], vs...)
		}
	}
	samples["trace.overhead_pct"] = []float64{(best(tw, "lower")/res.Metrics["unit_s"].Value - 1) * 100}

	probes := []struct {
		workload string
		size     params
		covers   string
	}{
		{"report", cfg.suite.probeReport, "experiments.warm_s"},
		{"served", cfg.suite.probeServed, "served.submit_ms.p50"},
	}
	for _, p := range probes {
		if _, ok := samples[p.covers]; ok {
			continue
		}
		w, err := newWorkload(p.workload, cfg)
		if err != nil {
			return err
		}
		u := w.unit(p.size, false, sp)
		res.Attempted += u.attempted
		res.Failed += u.failed
		for k, vs := range u.layer {
			if _, ok := samples[k]; !ok {
				samples[k] = vs
			}
		}
	}

	lp, err := layerPass(cfg.suite.layer, cfg.suite.layerReps, cfg.suite.journalAppends, cfg.seed)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	res.DecompositionPct = lp.decompositionPct
	for k, v := range lp.values {
		samples[k] = []float64{v}
	}

	for _, def := range perLayer {
		vs, ok := samples[def.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metric{Value: median(vs), Unit: def.Unit, N: len(vs)}
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
