package experiments

import (
	"context"
	"fmt"
	"strings"

	"nvscavenger/internal/core"
	"nvscavenger/internal/memtrace"
)

// SamplingRow measures what instruction sampling costs the analysis at one
// sampling period — the study behind §III-D's rejection of sampling:
// "sampling can lead to the loss of access information for many memory
// objects, which in turn causes improper data placement."
type SamplingRow struct {
	Period int
	// ObservedRefs is the number of references the sampled tool saw.
	ObservedRefs uint64
	// LostObjects counts global+heap objects that the full run observed in
	// the main loop but the sampled run missed entirely.
	LostObjects  int
	TotalObjects int
	// StackRatioError is the relative error of the sampled Table V stack
	// ratio against the full run's.
	StackRatioError float64
	// PlacementDiffs counts objects whose placement decision changed
	// versus the full run under the category-2 policy.
	PlacementDiffs int
}

// samplingRun is the part of one sampled run the study compares.
type samplingRun struct {
	refs    uint64
	active  map[string]bool
	targets map[string]core.Target
	ratio   float64
}

// reduceSampling reduces a tracer to its observed count, its main-loop
// active objects, its category-2 placement and its Table V stack ratio.
func reduceSampling(tr *memtrace.Tracer) samplingRun {
	res := samplingRun{
		refs:    tr.Sampled,
		active:  map[string]bool{},
		targets: map[string]core.Target{},
		ratio:   core.StackAnalysis(tr).OverallRatio,
	}
	plan := core.Plan(tr, core.DefaultPolicy(core.Category2))
	for _, adv := range plan.Advices {
		if adv.Object.LoopStats().Refs() > 0 {
			res.active[adv.Object.Name] = true
		}
		res.targets[adv.Object.Name] = adv.Target
	}
	return res
}

// SamplingStudy runs one app at several sampling periods and quantifies the
// information loss against the full (period 1) instrumentation.  The
// sampled runs fan out across the worker pool; in a degraded session a
// failed period drops only its own row.
func (s *Session) SamplingStudy(app string, periods []int) ([]SamplingRow, error) {
	runAt := func(ctx context.Context, period int) (samplingRun, error) {
		return reducedRun(ctx, s, app, "sampling", fmt.Sprintf("period-%d", period),
			memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: uint64(period)}, reduceSampling)
	}
	full, err := runAt(s.ctx(), 1)
	if err != nil {
		return nil, err
	}
	return collect(s, periods, func(ctx context.Context, period int) (SamplingRow, error) {
		res := full
		if period > 1 {
			var err error
			res, err = runAt(ctx, period)
			if err != nil {
				return SamplingRow{}, err
			}
		}
		row := SamplingRow{Period: period, ObservedRefs: res.refs, TotalObjects: len(full.active)}
		for name := range full.active {
			if !res.active[name] {
				row.LostObjects++
			}
		}
		for name, target := range full.targets {
			if res.targets[name] != target {
				row.PlacementDiffs++
			}
		}
		// relErr falls back to the absolute error when the full run's ratio
		// is 0, so a sampled run that reports stack activity the full run
		// did not see scores its own magnitude instead of a silent 0.
		row.StackRatioError = relErr(res.ratio, full.ratio)
		return row, nil
	})
}

// FormatSamplingStudy renders the study.
func FormatSamplingStudy(app string, rows []SamplingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sampling study on %s (§III-D: why the tool observes every reference)\n", app)
	fmt.Fprintf(&b, "%8s %14s %18s %18s %16s\n",
		"period", "observed refs", "objects lost", "stack-ratio err", "placement diffs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14d %10d of %-4d %17.1f%% %16d\n",
			r.Period, r.ObservedRefs, r.LostObjects, r.TotalObjects,
			r.StackRatioError*100, r.PlacementDiffs)
	}
	fmt.Fprintf(&b, "aggregate ratios survive sampling, but object coverage does not: the lost\n")
	fmt.Fprintf(&b, "objects get no placement decision at all — the improper-placement risk §III-D names.\n")
	return b.String()
}
