package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"nvscavenger/internal/core"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/runner"
)

// ProfilerErrorStudy is the quantified-sampling harness of ROADMAP item 2:
// it runs a perfect profiler (full instrumentation) and a set of sampled
// profilers side by side on the session's engine and reports, per sampling
// configuration, the relative error of the estimator-rescaled per-object
// statistics against the true values — the PerfectProfiler-vs-
// sampled-profiler methodology of felixge/alloc-prof-sim, applied to the
// paper's per-object metrics (references, writes, per-iteration series,
// Table V stack ratio).  Where the §III-D study (SamplingStudy) shows what
// is lost, this study shows how well the estimator recovers what remains —
// the accuracy/cost axis that buys 10-100x larger app scales.

// DefaultProfilerErrorSpecs are the exhibit's sampling configurations:
// three Bernoulli rates spanning two orders of magnitude, the periodic
// gate at the middle rate (phase-lock comparison) and a byte-threshold
// configuration (heap-sampler style).
var DefaultProfilerErrorSpecs = []memtrace.SampleSpec{
	{Mode: memtrace.SampleBernoulli, Rate: 16, Seed: 42},
	{Mode: memtrace.SampleBernoulli, Rate: 64, Seed: 42},
	{Mode: memtrace.SampleBernoulli, Rate: 256, Seed: 42},
	{Mode: memtrace.SamplePeriodic, Rate: 64},
	{Mode: memtrace.SampleBytes, Rate: 1024, Seed: 42},
}

// ProfilerErrorRow quantifies one sampled profiler against the perfect one.
type ProfilerErrorRow struct {
	Spec memtrace.SampleSpec
	// ObservedRefs is the number of references the sampled tracer saw;
	// TrueRefs is the perfect profiler's count.
	ObservedRefs uint64
	TrueRefs     uint64
	// TotalObjects counts the perfect run's main-loop-active global+heap
	// objects; LostObjects of them were never observed by the sampled run
	// (no estimate exists — the §III-D loss).
	TotalObjects int
	LostObjects  int
	// MeanRefsErr / MaxRefsErr are the mean and maximum relative error of
	// the estimated per-object main-loop reference counts over the active
	// objects (a lost object contributes error 1).
	MeanRefsErr float64
	MaxRefsErr  float64
	// MeanWritesErr is the same statistic over estimated main-loop write
	// counts, restricted to objects the perfect run saw written.
	MeanWritesErr float64
	// MeanSeriesErr is the mean relative error of the estimated
	// per-iteration reference series, averaged over active iterations and
	// then over objects — the estimator's fidelity on the Figures 8-11
	// variance inputs.
	MeanSeriesErr float64
	// StackRatioErr is the relative error of the sampled Table V stack
	// ratio (absolute error when the true ratio is 0).
	StackRatioErr float64
}

// profObject is the compact per-object estimate a profiler run retains.
type profObject struct {
	refs   float64   // estimated (true, for the perfect run) main-loop refs
	writes float64   // estimated main-loop writes
	series []float64 // estimated refs per iteration (index 0 = pre/post)
}

// profRun is the engine-cached product of one profiler execution.
type profRun struct {
	observed uint64
	objects  map[string]profObject
	ratio    float64
}

// profilerRun executes one app under the given sampling spec (the zero
// spec is the perfect profiler) and reduces the tracer to the per-object
// estimates the comparison needs.  Runs are keyed by app x mode x rate x
// seed, so re-requesting a configuration is free and concurrent exhibits
// share executions.
func (s *Session) profilerRun(ctx context.Context, app string, spec memtrace.SampleSpec) (profRun, error) {
	profile := "perfect"
	if spec.Enabled() {
		profile = spec.String()
	}
	v, err := s.do(ctx, s.key(app, "profiler", profile),
		func(ctx context.Context) (any, uint64, error) {
			stack, _, err := pipeline.Run(ctx, pipeline.Config{StackMode: memtrace.FastStack, Sample: spec},
				app, s.cfg.scale, s.cfg.iterations, 1)
			if err != nil {
				return nil, 0, err
			}
			tr := stack.Tracer
			est := tr.Estimator()
			res := profRun{
				observed: tr.Sampled,
				objects:  map[string]profObject{},
				ratio:    core.StackAnalysis(tr).OverallRatio,
			}
			for _, o := range tr.Objects() {
				loop := est.Loop(o)
				if loop.Refs() <= 0 {
					continue
				}
				res.objects[o.Name] = profObject{
					refs:   loop.Refs(),
					writes: loop.Writes,
					series: est.IterSeries(o),
				}
			}
			return res, tr.Sampled, nil
		})
	if err != nil {
		return profRun{}, err
	}
	return v.(profRun), nil
}

// relErr is |est-true|/true, falling back to the absolute error when the
// true value is 0 (an estimate of something absent is wrong by its own
// magnitude, not by 0).
func relErr(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-truth) / truth
}

// compare reduces one sampled run against the perfect run.
func compare(spec memtrace.SampleSpec, perfect, sampled profRun) ProfilerErrorRow {
	row := ProfilerErrorRow{
		Spec:         spec,
		ObservedRefs: sampled.observed,
		TrueRefs:     perfect.observed,
		TotalObjects: len(perfect.objects),
	}
	names := make([]string, 0, len(perfect.objects))
	for name := range perfect.objects {
		names = append(names, name)
	}
	sort.Strings(names)

	var refsSum, writesSum, seriesSum float64
	var writesN, seriesN int
	for _, name := range names {
		truth := perfect.objects[name]
		est, seen := sampled.objects[name]
		if !seen {
			// Lost object: the estimator has nothing to rescale.  It
			// counts as full error so the aggregate reflects the loss
			// instead of silently averaging over survivors only.
			row.LostObjects++
			refsSum++
			if row.MaxRefsErr < 1 {
				row.MaxRefsErr = 1
			}
			if truth.writes > 0 {
				writesSum++
				writesN++
			}
			seriesSum++
			seriesN++
			continue
		}
		e := relErr(est.refs, truth.refs)
		refsSum += e
		if e > row.MaxRefsErr {
			row.MaxRefsErr = e
		}
		if truth.writes > 0 {
			writesSum += relErr(est.writes, truth.writes)
			writesN++
		}
		var perIter float64
		var iters int
		for i := 1; i < len(truth.series); i++ {
			if truth.series[i] == 0 {
				continue
			}
			var got float64
			if i < len(est.series) {
				got = est.series[i]
			}
			perIter += relErr(got, truth.series[i])
			iters++
		}
		if iters > 0 {
			seriesSum += perIter / float64(iters)
			seriesN++
		}
	}
	if len(names) > 0 {
		row.MeanRefsErr = refsSum / float64(len(names))
	}
	if writesN > 0 {
		row.MeanWritesErr = writesSum / float64(writesN)
	}
	if seriesN > 0 {
		row.MeanSeriesErr = seriesSum / float64(seriesN)
	}
	row.StackRatioErr = relErr(sampled.ratio, perfect.ratio)
	return row
}

// ProfilerErrorStudy runs the perfect profiler and every sampled
// configuration on one app and returns a row per configuration, in input
// order.  The sampled runs fan out across the worker pool; output is
// byte-identical at any -jobs count and across the CLI and nvserved
// frontends (the exhibit renders from this single generator).
func (s *Session) ProfilerErrorStudy(app string, specs []memtrace.SampleSpec) ([]ProfilerErrorRow, error) {
	perfect, err := s.profilerRun(s.ctx(), app, memtrace.SampleSpec{})
	if err != nil {
		return nil, err
	}
	return runner.Collect(s.ctx(), specs, func(ctx context.Context, spec memtrace.SampleSpec) (ProfilerErrorRow, error) {
		if !spec.Enabled() {
			return compare(spec, perfect, perfect), nil
		}
		sampled, err := s.profilerRun(ctx, app, spec)
		if err != nil {
			return ProfilerErrorRow{}, err
		}
		return compare(spec, perfect, sampled), nil
	})
}

// FormatProfilerErrorStudy renders the study.
func FormatProfilerErrorStudy(app string, rows []ProfilerErrorRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Profiler error study on %s (sampled vs perfect profiler, estimator-rescaled)\n", app)
	fmt.Fprintf(&b, "%-26s %12s %12s %10s %10s %10s %10s %10s\n",
		"sample spec", "observed", "true refs", "lost", "refs err", "max err", "writes err", "ratio err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %12d %12d %3d of %-3d %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
			r.Spec, r.ObservedRefs, r.TrueRefs, r.LostObjects, r.TotalObjects,
			r.MeanRefsErr*100, r.MaxRefsErr*100, r.MeanWritesErr*100, r.StackRatioErr*100)
	}
	fmt.Fprintf(&b, "per-iteration series error:")
	for _, r := range rows {
		fmt.Fprintf(&b, " %s=%.1f%%", r.Spec, r.MeanSeriesErr*100)
	}
	fmt.Fprintf(&b, "\n")
	fmt.Fprintf(&b, "the estimator recovers aggregate counts at a fraction of the instrumentation\n")
	fmt.Fprintf(&b, "cost; lost objects mark where §III-D's objection still binds at each rate.\n")
	return b.String()
}
