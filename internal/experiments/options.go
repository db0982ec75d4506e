package experiments

import (
	"context"
	"time"

	"nvscavenger/internal/faults"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/resilience"
	"nvscavenger/internal/runner"
)

// Option configures a Session.  NewSession applies options in order, so a
// later option overrides an earlier one:
//
//	experiments.NewSession(
//		experiments.WithScale(0.25),
//		experiments.WithIterations(10),
//		experiments.WithJobs(4),
//		experiments.WithContext(ctx),
//	)
type Option interface {
	apply(*config)
}

// config is the resolved Session configuration.
type config struct {
	scale      float64
	iterations int
	apps       []string
	jobs       int
	ctx        context.Context
	progress   func(runner.Event)
	metrics    *obs.Registry
	fault      faults.Spec
	degrade    bool
	retry      resilience.RetryPolicy
	cache      *runner.Cache
	clock      func() time.Time
	sample     memtrace.SampleSpec
	shards     int
}

func defaultConfig() config {
	return config{
		scale:      1.0,
		iterations: 10,
		apps:       AppNames,
		ctx:        context.Background(),
	}
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithScale sets the problem scale for every experiment (1.0 is the
// calibrated default; non-positive values are ignored).
func WithScale(scale float64) Option {
	return optionFunc(func(c *config) {
		if scale > 0 {
			c.scale = scale
		}
	})
}

// WithIterations sets the number of main-loop iterations to instrument
// (default 10, the paper's collection window; non-positive values are
// ignored).
func WithIterations(n int) Option {
	return optionFunc(func(c *config) {
		if n > 0 {
			c.iterations = n
		}
	})
}

// WithApps restricts the application set the multi-app exhibits cover.
// The default is the paper's four (AppNames); exhibits with a fixed app
// list (Figure 7, Figure 12) intersect it with this set.
func WithApps(names ...string) Option {
	return optionFunc(func(c *config) {
		if len(names) > 0 {
			c.apps = append([]string(nil), names...)
		}
	})
}

// WithContext installs the context threaded through every instrumented
// run; cancelling it aborts queued runs immediately and executing runs at
// the next main-loop iteration boundary.
func WithContext(ctx context.Context) Option {
	return optionFunc(func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	})
}

// WithJobs bounds the number of concurrently executing instrumented runs.
// The default (0) selects GOMAXPROCS; 1 reproduces the old strictly
// sequential behaviour.
func WithJobs(n int) Option {
	return optionFunc(func(c *config) { c.jobs = n })
}

// WithProgress installs a streaming progress callback for run-level
// events (start, done, cached, error).  The callback is invoked from
// worker goroutines and must be safe for concurrent use.
func WithProgress(fn func(runner.Event)) Option {
	return optionFunc(func(c *config) { c.progress = fn })
}

// WithMetrics installs the observability registry the session and its
// engine publish into — runner counters and wall-time histograms plus the
// per-run cachesim/dramsim/memtrace exports.  The default (nil) gives the
// session a private registry, readable through MetricsSnapshot.
func WithMetrics(reg *obs.Registry) Option {
	return optionFunc(func(c *config) {
		if reg != nil {
			c.metrics = reg
		}
	})
}

// WithFaults arms the session's deterministic fault injector (chaos runs):
// the spec's target layer fails per its every/prob schedule in each
// instrumented run.  Arming faults also switches the session into degraded
// mode — a failed app yields a partial exhibit with a per-app error
// annotation (see RunErrors) instead of aborting the sweep.  Injection is
// seeded, so the same spec produces byte-identical degraded reports at any
// jobs count.
func WithFaults(spec faults.Spec) Option {
	return optionFunc(func(c *config) {
		if spec.Enabled() {
			c.fault = spec
			c.degrade = true
		}
	})
}

// WithDegraded switches the session into graceful-degradation mode without
// arming faults: any genuinely failing app run is annotated and skipped
// rather than aborting the whole sweep.
func WithDegraded() Option {
	return optionFunc(func(c *config) { c.degrade = true })
}

// WithClock overrides the wall clock of the session's engine (see
// runner.WithClock): progress-event timestamps and per-run wall metrics
// read it.  The nvserved daemon passes its service clock through so a
// job's event stream is deterministic under an injected fake clock; the
// default (nil) keeps the engine's real clock.
func WithClock(now func() time.Time) Option {
	return optionFunc(func(c *config) { c.clock = now })
}

// WithRunCache shares a single-flight run cache across sessions: engines
// built over the same cache deduplicate identically keyed runs even when
// the sessions differ in context, progress sink or metrics registry.  The
// nvserved daemon gives every job its own session (so per-job cancellation
// stays isolated) but one shared cache per fault partition, so concurrent
// clients never recompute a run.  The default (nil) keeps a private cache.
//
// The cache keys on app/mode/scale/iterations only, so sessions sharing
// one must agree on everything else that shapes a run's output — use
// JobSpec.RunCacheKey to partition.
func WithRunCache(cache *runner.Cache) Option {
	return optionFunc(func(c *config) { c.cache = cache })
}

// WithSample switches every instrumented run of the session to seeded
// sampled tracing (see memtrace.SampleSpec): the tracer observes a
// deterministic subset of the reference stream and exhibits compute over
// the observed counters.  Sampled runs are keyed separately from full
// runs, so a shared run cache never serves a sampled product to a full
// session or vice versa.  The §III-D caveat applies: sampling loses
// access information for rarely touched objects — ProfilerErrorStudy
// quantifies exactly how much at any rate.  A disabled spec is ignored.
func WithSample(spec memtrace.SampleSpec) Option {
	return optionFunc(func(c *config) {
		if spec.Enabled() {
			c.sample = spec
		}
	})
}

// WithShards splits every instrumented run's iteration space across n
// per-shard stacks (see pipeline.Run): each shard replays the app
// deterministically and records only its owned span, and the session merges
// the shards into one result byte-identical to the unsharded run.  Because
// the products are identical, sharded and unsharded runs share run-cache
// entries.  Values below 2 keep the single-stack path; sessions with armed
// faults ignore sharding (fault injection targets the one live pipeline of
// a run, which selective replay would multiply).
func WithShards(n int) Option {
	return optionFunc(func(c *config) {
		if n > 1 {
			c.shards = n
		}
	})
}

// WithRetry installs a per-run retry policy on the session's engine: a
// failed (or panicked) instrumented run is re-executed up to attempts
// times before its error is reported.  Values below 2 are ignored (one
// attempt is the default).
func WithRetry(attempts int) Option {
	return optionFunc(func(c *config) {
		if attempts > 1 {
			c.retry = resilience.RetryPolicy{Attempts: attempts}
		}
	})
}
