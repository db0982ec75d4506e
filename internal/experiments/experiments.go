// Package experiments reproduces every table and figure of the paper's
// evaluation (§VII).  It wires the mini-applications through the
// NV-SCAVENGER substrate, the cache hierarchy, the memory power simulator
// and the CPU timing model, and returns the data each exhibit plots.
//
// A Session schedules its instrumented runs on a concurrent experiment
// engine (internal/runner): independent app runs fan out across a bounded
// worker pool, identical runs are deduplicated by a keyed single-flight
// cache, and every run reports wall time and references/sec.  Exhibits
// sharing one instrumented run (Tables I/V, Figures 3-11) therefore still
// execute it once, exactly as the old memoizing Session did — but the
// many independent runs behind Table I/V/VI and Figures 7/12 now run in
// parallel (§III-D: "We run the three tools in parallel to collect memory
// access patterns").
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/core"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/runner"
	"nvscavenger/internal/trace"

	// Register the four mini-applications.
	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

// AppNames is the paper's application order.
var AppNames = []string{"nek5000", "cam", "gtc", "s3d"}

// Run is one memoized instrumented execution.
type Run struct {
	App       apps.App
	Tracer    *memtrace.Tracer
	Hierarchy *cachesim.Hierarchy
	// Transactions is the cache-filtered main-memory trace (fast runs only).
	Transactions []trace.Transaction
}

// Session schedules the exhibits' instrumented runs on a shared engine.
// Unlike its pre-runner ancestor, a Session is safe for concurrent exhibit
// calls: runs are deduplicated with single-flight semantics, so concurrent
// requests for the same run share one execution.
type Session struct {
	cfg config
	eng *runner.Engine

	mu       sync.Mutex
	failures map[string]string // run key -> first error, the degraded-report annotations
}

// NewSession returns a Session configured by the given options (see
// Option).  With no options it uses the calibrated defaults: scale 1.0,
// 10 iterations, all four apps, GOMAXPROCS workers.
func NewSession(opts ...Option) *Session {
	cfg := defaultConfig()
	for _, o := range opts {
		if o != nil {
			o.apply(&cfg)
		}
	}
	if cfg.metrics == nil {
		cfg.metrics = obs.NewRegistry()
	}
	s := &Session{
		cfg:      cfg,
		failures: map[string]string{},
	}
	// Every failed engine run — whatever exhibit requested it — passes
	// through the progress stream, so failure recording hooks there rather
	// than at each call site.
	progress := cfg.progress
	var engOpts []runner.Option
	if cfg.clock != nil {
		engOpts = append(engOpts, runner.WithClock(cfg.clock))
	}
	s.eng = runner.New(runner.Config{
		Jobs:    cfg.jobs,
		Metrics: cfg.metrics,
		Retry:   cfg.retry,
		Cache:   cfg.cache,
		Progress: func(ev runner.Event) {
			if ev.Kind == runner.EventError {
				s.noteFailure(ev.Key.String(), ev.Err)
			}
			if progress != nil {
				progress(ev)
			}
		},
	}, engOpts...)
	return s
}

// noteFailure records a run failure for the degraded report.  Cancellations
// are not failures (they are how sibling runs are told to stop), and the
// first error per key wins — re-requesting an uncached failed run repeats
// the identical error, so first-wins keeps the annotation deterministic.
func (s *Session) noteFailure(key string, err error) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.failures[key]; !ok {
		s.failures[key] = err.Error()
	}
}

// RunError is one failed run in a degraded sweep.  It is part of the
// versioned JobResult wire shape (see SchemaVersion).
type RunError struct {
	// Key is the runner key of the failed run (e.g. "gtc/fast@s0.05@i3").
	Key string `json:"key"`
	// Err is the failure message.
	Err string `json:"error"`
}

// RunErrors returns the per-run error annotations accumulated so far,
// sorted by key — the "Degraded runs" section of a chaos report.
func (s *Session) RunErrors() []RunError {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunError, 0, len(s.failures))
	for k, e := range s.failures {
		out = append(out, RunError{Key: k, Err: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Degraded reports whether the session runs in graceful-degradation mode
// (armed faults or WithDegraded).
func (s *Session) Degraded() bool { return s.cfg.degrade }

// do schedules one keyed run on the engine, arming the worker-crash fault
// when the session's spec targets workers.  The crash decision is a pure
// hash of (seed, key), so the same runs fail at any jobs count.
func (s *Session) do(ctx context.Context, key runner.Key, fn runner.Func) (any, error) {
	if s.cfg.fault.Is(faults.TargetWorker) {
		fn = faults.Worker(s.cfg.fault, key.String(), fn)
	}
	return s.eng.Do(ctx, key, fn)
}

// chaos injects the session's fault spec into a pipeline configuration:
// sink faults attach a failing transaction sink behind the cache stage,
// access faults attach a failing access tap, and perf faults wrap the
// performance-event sink.  With no armed fault the config is untouched, so
// healthy builds stay byte-identical.
func (s *Session) chaos(cfg *pipeline.Config) {
	f := s.cfg.fault
	switch {
	case f.Is(faults.TargetSink) && cfg.Cache != nil:
		cfg.TxSinks = append(cfg.TxSinks, faults.TxSink(f, trace.TxSinkFunc(
			func([]trace.Transaction) error { return nil })))
	case f.Is(faults.TargetAccess):
		cfg.AccessTaps = append(cfg.AccessTaps, faults.Sink(f, trace.SinkFunc(
			func([]trace.Access) error { return nil })))
	case f.Is(faults.TargetPerf) && cfg.Perf != nil:
		cfg.Perf = faults.PerfSink(f, cfg.Perf)
	}
}

// Metrics returns the run-level observability snapshot: cache hit/miss
// counters and per-run wall time and reference throughput.
func (s *Session) Metrics() runner.Metrics { return s.eng.Metrics() }

// MetricsRegistry returns the registry the session and its engine publish
// into: runner run/hit/miss/error counters and per-run wall-time
// histograms, plus the per-run cachesim/memtrace exports (labelled by app
// and mode) and the dramsim command counters of the power replays.
func (s *Session) MetricsRegistry() *obs.Registry { return s.cfg.metrics }

// MetricsSnapshot renders the aggregated observability state: one
// deterministic snapshot covering every run the exhibits executed so far.
func (s *Session) MetricsSnapshot() obs.Snapshot { return s.cfg.metrics.Snapshot() }

// Jobs returns the session's worker-pool bound.
func (s *Session) Jobs() int { return s.eng.Jobs() }

func (s *Session) ctx() context.Context { return s.cfg.ctx }

// appNames returns the configured application set.
func (s *Session) appNames() []string { return s.cfg.apps }

// subset intersects an exhibit's fixed app list with the configured set,
// preserving the fixed order.
func (s *Session) subset(fixed []string) []string {
	have := map[string]bool{}
	for _, n := range s.cfg.apps {
		have[n] = true
	}
	out := make([]string, 0, len(fixed))
	for _, n := range fixed {
		if have[n] {
			out = append(out, n)
		}
	}
	return out
}

func (s *Session) key(app, mode, profile string) runner.Key {
	// A session-wide sampling spec changes what every instrumented run
	// produces, so it becomes part of the run identity: sampled runs never
	// exchange cached products with full runs (or with runs sampled
	// differently), even across sessions sharing one run cache.
	if s.cfg.sample.Enabled() {
		suffix := "sample=" + s.cfg.sample.String()
		if profile == "" {
			profile = suffix
		} else {
			profile += "@" + suffix
		}
	}
	return runner.Key{
		App:        app,
		Mode:       mode,
		Scale:      s.cfg.scale,
		Iterations: s.cfg.iterations,
		Profile:    profile,
	}
}

// collectApps fans per-app work out across the engine's worker pool and
// returns the results in input order, so any report built from them is
// byte-identical to a sequential run.  In degraded mode a failed app does
// not abort its siblings: its row is dropped from the result (the failure
// is annotated via RunErrors) and only the parent context's cancellation
// still aborts.
func collectApps[T any](s *Session, names []string, f func(ctx context.Context, name string) (T, error)) ([]T, error) {
	if !s.cfg.degrade {
		return runner.Collect(s.ctx(), names, f)
	}
	res, errs := runner.CollectPartial(s.ctx(), names, f)
	out := make([]T, 0, len(res))
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			continue // annotated through the engine's progress stream
		}
		out = append(out, res[i])
	}
	return out, nil
}

// Fast returns the memoized fast-stack-mode run of an app, with the cache
// hierarchy attached and the filtered memory trace captured.  Concurrent
// calls for the same app share one execution.
func (s *Session) Fast(name string) (*Run, error) { return s.fast(s.ctx(), name) }

func (s *Session) fast(ctx context.Context, name string) (*Run, error) {
	v, err := s.do(ctx, s.key(name, "fast", ""), func(ctx context.Context) (any, uint64, error) {
		run, err := s.runFast(ctx, name)
		if err != nil {
			return nil, 0, err
		}
		return run, run.Tracer.Sampled, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Run), nil
}

// shards returns the effective shard count for instrumented runs: sessions
// with armed faults stay on the single-stack path (fault injection targets
// the one live pipeline of a run, which selective replay would multiply).
func (s *Session) shards() int {
	if s.cfg.fault.Enabled() {
		return 1
	}
	return s.cfg.shards
}

// run executes one instrumented run of the named app through pipeline.Run
// on the session's scale, with the session's fault spec injected into pcfg
// and its shard count applied.
func (s *Session) run(ctx context.Context, name string, pcfg pipeline.Config) (*pipeline.Stack, apps.App, error) {
	s.chaos(&pcfg)
	return pipeline.Run(ctx, pcfg, name, s.cfg.scale, s.cfg.iterations, s.shards())
}

func (s *Session) runFast(ctx context.Context, name string) (*Run, error) {
	labels := []obs.Label{obs.L("app", name), obs.L("mode", "fast")}
	cacheCfg := cachesim.PaperConfig()
	stack, app, err := s.run(ctx, name, pipeline.Config{
		StackMode: memtrace.FastStack,
		Sample:    s.cfg.sample,
		Cache:     &cacheCfg,
		CaptureTx: true,
		Metrics:   s.cfg.metrics,
		Labels:    labels,
	})
	if err != nil {
		return nil, err
	}
	stack.Hierarchy.ExportMetrics(s.cfg.metrics, labels...)
	stack.Tracer.ExportMetrics(s.cfg.metrics, labels...)
	return &Run{App: app, Tracer: stack.Tracer, Hierarchy: stack.Hierarchy, Transactions: stack.Transactions()}, nil
}

// Slow returns the memoized slow-stack-mode run (per-frame attribution).
func (s *Session) Slow(name string) (*Run, error) { return s.slow(s.ctx(), name) }

func (s *Session) slow(ctx context.Context, name string) (*Run, error) {
	v, err := s.do(ctx, s.key(name, "slow", ""), func(ctx context.Context) (any, uint64, error) {
		run, err := s.runSlow(ctx, name)
		if err != nil {
			return nil, 0, err
		}
		return run, run.Tracer.Sampled, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Run), nil
}

func (s *Session) runSlow(ctx context.Context, name string) (*Run, error) {
	stack, app, err := s.run(ctx, name, pipeline.Config{StackMode: memtrace.SlowStack, Sample: s.cfg.sample})
	if err != nil {
		return nil, err
	}
	stack.Tracer.ExportMetrics(s.cfg.metrics, obs.L("app", name), obs.L("mode", "slow"))
	return &Run{App: app, Tracer: stack.Tracer}, nil
}

// Warm populates every memoized run the exhibits need, fanning the
// instrumented executions out across the worker pool — the same trick the
// original tool uses to amortize instrumentation time (§III-D).  It
// returns the first error encountered.
func (s *Session) Warm() error {
	type job struct{ mode, name string }
	jobs := make([]job, 0, len(s.appNames())+1)
	for _, name := range s.appNames() {
		jobs = append(jobs, job{"fast", name})
	}
	if len(s.subset([]string{"cam"})) > 0 {
		jobs = append(jobs, job{"slow", "cam"})
	}
	warmOne := func(ctx context.Context, j job) (struct{}, error) {
		var err error
		if j.mode == "fast" {
			_, err = s.fast(ctx, j.name)
		} else {
			_, err = s.slow(ctx, j.name)
		}
		if err != nil {
			return struct{}{}, fmt.Errorf("%s %s: %w", j.mode, j.name, err)
		}
		return struct{}{}, nil
	}
	if s.cfg.degrade {
		// Degraded warm-up: failed runs are annotated (RunErrors) and the
		// exhibits degrade per app; only the parent's cancellation aborts.
		_, errs := runner.CollectPartial(s.ctx(), jobs, warmOne)
		for _, err := range errs {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
		}
		return nil
	}
	_, err := runner.Collect(s.ctx(), jobs, warmOne)
	return err
}

// Table1Row is one application characteristics row (Table I).
type Table1Row struct {
	App         string
	Input       string
	Description string
	FootprintMB float64
}

// Table1 reproduces Table I.  The app runs fan out in parallel.
func (s *Session) Table1() ([]Table1Row, error) {
	return collectApps(s, s.appNames(), func(ctx context.Context, name string) (Table1Row, error) {
		run, err := s.fast(ctx, name)
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			App:         name,
			Input:       apps.InputOf(run.App),
			Description: run.App.Description(),
			FootprintMB: float64(run.Tracer.Footprint()) / (1 << 20),
		}, nil
	})
}

// Table5Row is one stack-analysis row (Table V).
type Table5Row struct {
	App string
	core.StackRow
}

// Table5 reproduces Table V with the fast version of the tool.
func (s *Session) Table5() ([]Table5Row, error) {
	return collectApps(s, s.appNames(), func(ctx context.Context, name string) (Table5Row, error) {
		run, err := s.fast(ctx, name)
		if err != nil {
			return Table5Row{}, err
		}
		return Table5Row{App: name, StackRow: core.StackAnalysis(run.Tracer)}, nil
	})
}

// Figure2 reproduces the CAM per-frame stack analysis with the slow tool.
func (s *Session) Figure2() ([]core.ObjectRecord, core.Figure2Stats, error) {
	run, err := s.Slow("cam")
	if err != nil {
		return nil, core.Figure2Stats{}, err
	}
	recs := core.StackFrameRecords(run.Tracer)
	return recs, core.SummarizeFrames(recs), nil
}

// ObjectFigure reproduces one of Figures 3-6: the per-object read/write
// ratios, reference rates and sizes for the named app's global+heap data.
func (s *Session) ObjectFigure(name string) ([]core.ObjectRecord, error) {
	run, err := s.Fast(name)
	if err != nil {
		return nil, err
	}
	return core.ObjectRecords(run.Tracer), nil
}

// Figure7 reproduces the cumulative memory-usage distributions.  The paper
// plots Nek5000, CAM and S3D; GTC is omitted because its objects are evenly
// touched.
func (s *Session) Figure7() (map[string][]core.UsagePoint, error) {
	names := s.subset([]string{"nek5000", "cam", "s3d"})
	type named struct {
		name string
		pts  []core.UsagePoint
	}
	res, err := collectApps(s, names, func(ctx context.Context, name string) (named, error) {
		run, err := s.fast(ctx, name)
		if err != nil {
			return named{}, err
		}
		return named{name: name, pts: core.UsageCDF(run.Tracer)}, nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]core.UsagePoint{}
	for _, r := range res {
		out[r.name] = r.pts
	}
	return out, nil
}

// VarianceFigure reproduces one of Figures 8-11 for the named app: the
// distributions of the normalized read/write ratio and reference rate.
func (s *Session) VarianceFigure(name string) (ratio, rate [][]float64, err error) {
	run, err := s.Fast(name)
	if err != nil {
		return nil, nil, err
	}
	return core.VarianceDistribution(run.Tracer, core.VarianceRWRatio),
		core.VarianceDistribution(run.Tracer, core.VarianceRefRate), nil
}

// Table6Row is one normalized-power row (Table VI).
type Table6Row struct {
	App        string
	Reports    []dramsim.PowerReport // DDR3, PCRAM, STTRAM, MRAM
	Normalized []float64
}

// Table6 reproduces Table VI: the filtered memory trace of each app is
// replayed through the power simulator for each device profile and the
// average power is normalized to DDR3.  The per-app replays fan out in
// parallel and are cached under their own run key.
func (s *Session) Table6() ([]Table6Row, error) {
	return collectApps(s, s.appNames(), func(ctx context.Context, name string) (Table6Row, error) {
		run, err := s.fast(ctx, name)
		if err != nil {
			return Table6Row{}, err
		}
		v, err := s.do(ctx, s.key(name, "power", "table4-profiles"), func(ctx context.Context) (any, uint64, error) {
			if len(run.Transactions) == 0 {
				return nil, 0, fmt.Errorf("experiments: %s produced no memory transactions", name)
			}
			reps, err := dramsim.Compare(dramsim.PaperGeometry(), dramsim.OpenPage, dramsim.Profiles(), run.Transactions)
			if err != nil {
				return nil, 0, err
			}
			for _, rep := range reps {
				rep.ExportMetrics(s.cfg.metrics, obs.L("app", name))
			}
			row := Table6Row{App: name, Reports: reps, Normalized: dramsim.Normalize(reps)}
			return row, uint64(len(run.Transactions)) * uint64(len(reps)), nil
		})
		if err != nil {
			return Table6Row{}, err
		}
		return v.(Table6Row), nil
	})
}

// Figure12Latencies are the Table IV performance-simulation points.
var Figure12Latencies = []float64{10, 12, 20, 100}

// Figure12Devices name the sweep points in Table IV order.
var Figure12Devices = []string{"DRAM", "MRAM", "STTRAM", "PCRAM"}

// Figure12Row holds one app's latency sweep.
type Figure12Row struct {
	App     string
	Results []cpusim.SweepResult
}

// Figure12 reproduces the performance-sensitivity study.  As in §VII-E,
// only one iteration of the main loop is simulated, and only for two
// applications (Nek5000 and CAM); the two sweeps run in parallel.  The app
// is re-executed for each memory latency with the timing model attached;
// runs are deterministic, so every sweep point sees the identical
// reference stream.
func (s *Session) Figure12() ([]Figure12Row, error) {
	return collectApps(s, s.subset([]string{"nek5000", "cam"}), func(ctx context.Context, name string) (Figure12Row, error) {
		res, err := s.latencySweep(ctx, name)
		if err != nil {
			return Figure12Row{}, err
		}
		return Figure12Row{App: name, Results: res}, nil
	})
}

// countingPerf forwards performance-event batches and counts the references
// the sweep observed (the runner's throughput metric).
func countingPerf(sink trace.PerfSink, refs *uint64) trace.PerfSink {
	return trace.PerfSinkFunc(func(batch []trace.PerfEvent) error {
		*refs += uint64(len(batch))
		return sink.FlushEvents(batch)
	})
}

func (s *Session) latencySweep(ctx context.Context, name string) ([]cpusim.SweepResult, error) {
	v, err := s.do(ctx, s.key(name, "perf-sweep", "table4-latencies"), func(ctx context.Context) (any, uint64, error) {
		var refs uint64
		var runErr error
		replay := func(sink trace.PerfSink) {
			if runErr != nil {
				return
			}
			pcfg := pipeline.Config{
				StackMode: memtrace.FastStack,
				Perf:      countingPerf(sink, &refs),
			}
			s.chaos(&pcfg)
			_, _, runErr = pipeline.Run(ctx, pcfg, name, s.cfg.scale, 1, 1)
		}
		res, err := cpusim.Sweep(Figure12Devices, Figure12Latencies, replay)
		if err != nil {
			return nil, 0, err
		}
		if runErr != nil {
			return nil, 0, runErr
		}
		return res, refs, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]cpusim.SweepResult), nil
}

// Placement runs the §II placement analysis: the NVRAM-suitable share of
// each app's working set under the category-2 policy (the abstract's "31%
// and 27%" headline for Nek5000 and CAM).
func (s *Session) Placement() (map[string]core.PlacementSummary, error) {
	type named struct {
		name string
		plan core.PlacementSummary
	}
	res, err := collectApps(s, s.appNames(), func(ctx context.Context, name string) (named, error) {
		run, err := s.fast(ctx, name)
		if err != nil {
			return named{}, err
		}
		return named{name: name, plan: core.Plan(run.Tracer, core.DefaultPolicy(core.Category2))}, nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]core.PlacementSummary{}
	for _, r := range res {
		out[r.name] = r.plan
	}
	return out, nil
}
