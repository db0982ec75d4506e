// Command nvscavenger runs one mini-application under the NV-SCAVENGER
// instrumentation substrate and reports per-object NVRAM opportunity
// analysis: the three metrics of the paper (read/write ratio, size,
// reference rate), stack/heap/global breakdowns, hybrid-placement advice
// and device-endurance estimates.
//
// The instrumented run is scheduled on the shared experiment engine
// (internal/runner), which reports the run's wall time and reference
// throughput and honors -timeout via context cancellation.
//
// Usage:
//
//	nvscavenger -app nek5000 [-scale 1.0] [-iterations 10] [-mode fast]
//	            [-placement] [-endurance] [-category 2] [-timeout 5m]
//	            [-json snap.json] [-metrics m.txt]
//	            [-fault access:every=50,seed=7]   # deterministic chaos run
package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cli"
	"nvscavenger/internal/core"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/experiments"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/runner"
	"nvscavenger/internal/trace"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/mdmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

func main() { cli.Main("nvscavenger", run) }

// instrumented is the engine-cached product of one run.
type instrumented struct {
	app apps.App
	tr  *memtrace.Tracer
}

func run(args []string, out io.Writer) error {
	fs := cli.NewFlagSet("nvscavenger")
	appName := fs.String("app", "", "application to instrument: "+cli.AppList())
	scale := fs.Float64("scale", 1.0, "problem scale (1.0 = calibrated default)")
	iters := fs.Int("iterations", 10, "main-loop iterations to instrument")
	mode := fs.String("mode", "fast", "stack attribution mode: fast (whole stack) or slow (per frame)")
	placement := fs.Bool("placement", false, "print hybrid DRAM/NVRAM placement advice")
	endurance := fs.Bool("endurance", false, "print PCRAM endurance estimates for NVRAM-placed objects")
	category := fs.Int("category", 2, "NVRAM category for the placement policy (1 or 2)")
	topN := fs.Int("top", 25, "number of objects to print per section")
	jsonOut := fs.String("json", "", "write the full analysis snapshot as JSON to this file (embeds the metrics block)")
	metricsOut := fs.String("metrics", "", "write the run's observability snapshot to this file (.json for JSON, text otherwise)")
	timeout := fs.Duration("timeout", 0, "abort the instrumented run after this long (0 = no limit)")
	faultSpec := fs.String("fault", "", "chaos run: deterministic fault spec, e.g. access:every=50,seed=7 or worker:every=1")
	sampleSpec := fs.String("sample", "", "seeded sampled tracing, e.g. bernoulli:rate=64,seed=7 or bytes:rate=4096 (default: observe every reference)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.RequireApp(fs, *appName); err != nil {
		return err
	}

	stackMode := memtrace.FastStack
	switch *mode {
	case "fast":
	case "slow":
		stackMode = memtrace.SlowStack
	default:
		return fmt.Errorf("unknown -mode %q (fast or slow)", *mode)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var fault faults.Spec
	if *faultSpec != "" {
		var err error
		fault, err = faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
	}

	sample, err := memtrace.ParseSampleSpec(*sampleSpec)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	eng := runner.New(runner.Config{Jobs: 1, Metrics: reg})
	key := runner.Key{App: *appName, Mode: *mode, Scale: *scale, Iterations: *iters}
	if sample.Enabled() {
		// Sampled runs are keyed apart from full runs (same contract as
		// the session-level WithSample option).
		key.Profile = "sample=" + sample.String()
	}
	labels := []obs.Label{obs.L("app", *appName), obs.L("mode", *mode)}
	// A stats tap terminates the access stream so the batch flow is visible
	// in the pipeline stage counters of -metrics.
	var tap trace.Sink = &trace.Stats{}
	if fault.Is(faults.TargetAccess) || fault.Is(faults.TargetSink) {
		tap = faults.Sink(fault, tap)
	}
	pcfg := pipeline.Config{StackMode: stackMode, Sample: sample, Metrics: reg, Labels: labels,
		AccessTaps: []trace.Sink{tap}}
	fn := func(ctx context.Context) (any, uint64, error) {
		stack, app, err := pipeline.Run(ctx, pcfg, *appName, *scale, *iters)
		if err != nil {
			return nil, 0, err
		}
		return instrumented{app: app, tr: stack.Tracer}, stack.Tracer.Sampled, nil
	}
	if fault.Is(faults.TargetWorker) {
		fn = faults.Worker(fault, key.String(), fn)
	}
	v, err := eng.Do(ctx, key, fn)
	if err != nil {
		return err
	}
	ins := v.(instrumented)
	app, tr := ins.app, ins.tr
	tr.ExportMetrics(reg, labels...)

	fmt.Fprintf(out, "== %s: %s ==\n", app.Name(), app.Description())
	fmt.Fprintf(out, "scale %.2f, %d iterations, %s stack mode\n", *scale, *iters, stackMode)
	if m := eng.Metrics(); len(m.Runs) == 1 {
		r := m.Runs[0]
		fmt.Fprintf(out, "run wall time %.2fs (%.1fM references/s)\n", r.Wall.Seconds(), r.RefsPerSec()/1e6)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "memory footprint: %.1f MB (stack high water %.1f KB)\n",
		float64(tr.Footprint())/(1<<20), float64(tr.StackHighWater())/1024)
	fmt.Fprintf(out, "instructions retired: %d\n", tr.Instructions())
	if sample.Enabled() {
		total := tr.Sampled + tr.SampledOut
		pct := 0.0
		if total > 0 {
			pct = float64(tr.Sampled) / float64(total) * 100
		}
		fmt.Fprintf(out, "sampled tracing: %s — observed %d of %d references (%.2f%%)\n",
			sample, tr.Sampled, total, pct)
		est := tr.Estimator()
		type estRow struct {
			obj  *memtrace.Object
			loop memtrace.EstStats
		}
		var rows []estRow
		for _, o := range tr.Objects() {
			if s := est.Loop(o); s.Refs() > 0 {
				rows = append(rows, estRow{obj: o, loop: s})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].loop.Refs() != rows[j].loop.Refs() {
				return rows[i].loop.Refs() > rows[j].loop.Refs()
			}
			return rows[i].obj.ID < rows[j].obj.ID
		})
		fmt.Fprintf(out, "estimated true main-loop counts (top %d of %d observed objects):\n", *topN, len(rows))
		etbl := cli.NewTable(out)
		etbl.Row("object", "segment", "est reads", "est writes", "factor")
		for i, r := range rows {
			if i >= *topN {
				break
			}
			etbl.Rowf("  %s\t%s\t%.0f\t%.0f\t%.1f",
				r.obj.Name, r.obj.Segment, r.loop.Reads, r.loop.Writes, est.Factor(r.obj))
		}
		if err := etbl.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintln(out)

	// Segment summary (Table V style).
	row := core.StackAnalysis(tr)
	fmt.Fprintf(out, "stack data: r/w ratio %.2f (first iteration %.2f), %.1f%% of references\n",
		row.SteadyRatio, row.FirstIterRatio, row.ReferencePct)
	for _, seg := range []trace.Segment{trace.SegGlobal, trace.SegHeap} {
		s := tr.SegmentTotals(seg, 1, tr.MainLoopIterations())
		fmt.Fprintf(out, "%s data: %d reads, %d writes (ratio %.2f)\n",
			seg, s.Reads, s.Writes, s.ReadWriteRatio())
	}

	// Per-object analysis.
	recs := core.ObjectRecords(tr)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Refs > recs[j].Refs })
	fmt.Fprintf(out, "\nglobal+heap objects by main-loop references (top %d of %d):\n", *topN, len(recs))
	tbl := cli.NewTable(out)
	tbl.Row("object", "segment", "r/w ratio", "refs/Minstr", "size (KB)", "iters")
	for i, r := range recs {
		if i >= *topN {
			break
		}
		tbl.Rowf("%s\t%s\t%.2f\t%.1f\t%.1f\t%d",
			r.Name, r.Segment, r.RWRatio, r.RefRate, float64(r.SizeBytes)/1024, r.TouchedIters)
	}
	if err := tbl.Flush(); err != nil {
		return err
	}

	if stackMode == memtrace.SlowStack {
		frames := core.StackFrameRecords(tr)
		fig := core.SummarizeFrames(frames)
		sort.Slice(frames, func(i, j int) bool { return frames[i].Refs > frames[j].Refs })
		fmt.Fprintf(out, "\nstack frames by references (top %d of %d):\n", *topN, len(frames))
		ftbl := cli.NewTable(out)
		ftbl.Row("routine", "r/w ratio", "refs/Minstr", "frame (KB)")
		for i, r := range frames {
			if i >= *topN {
				break
			}
			ftbl.Rowf("%s\t%.2f\t%.1f\t%.1f", r.Name, r.RWRatio, r.RefRate, float64(r.SizeBytes)/1024)
		}
		if err := ftbl.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "frames with r/w > 10: %.1f%% of objects, %.1f%% of references\n",
			fig.CountOver10*100, fig.RefsOver10*100)
		fmt.Fprintf(out, "frames with r/w > 50: %.1f%% of objects, %.1f%% of references\n",
			fig.CountOver50*100, fig.RefsOver50*100)
	}

	if *placement {
		cat := core.Category2
		if *category == 1 {
			cat = core.Category1
		}
		plan := core.Plan(tr, core.DefaultPolicy(cat))
		fmt.Fprintf(out, "\nhybrid placement (%s):\n", cat)
		fmt.Fprintf(out, "NVRAM %.1f MB, migratable %.1f MB, DRAM %.1f MB -> %.1f%% of the working set suits NVRAM\n",
			float64(plan.NVRAMBytes)/(1<<20), float64(plan.MigratableBytes)/(1<<20),
			float64(plan.DRAMBytes)/(1<<20), plan.NVRAMShare*100)
		ptbl := cli.NewTable(out)
		for i, adv := range plan.Advices {
			if i >= *topN {
				break
			}
			ptbl.Rowf("  %s\t%s\t%s", adv.Object.Name, adv.Target, adv.Reason)
		}
		if err := ptbl.Flush(); err != nil {
			return err
		}

		if *endurance {
			fmt.Fprintf(out, "\nPCRAM endurance for NVRAM-placed objects:\n")
			prof := dramsim.PCRAM()
			for _, adv := range plan.Advices {
				if adv.Target != core.TargetNVRAM {
					continue
				}
				est := core.Endurance(adv.Object, prof, tr.MainLoopIterations())
				fmt.Fprintf(out, "  %-20s %10.4f writes/byte/step -> %.2e steps to wear-out\n",
					est.ObjectName, est.WritesPerBytePerStep, est.LifetimeSteps)
			}
		}
	}

	if *jsonOut != "" {
		var policyPtr *core.Policy
		if *placement {
			p := core.DefaultPolicy(core.Category(*category))
			policyPtr = &p
		}
		snap := core.BuildSnapshot(app.Name(), tr, policyPtr)
		metrics := reg.Snapshot()
		snap.Metrics = &metrics
		// The analysis travels in the versioned JobResult envelope — the
		// same wire shape the nvserved jobs API serves — so downstream
		// tooling reads one schema regardless of the frontend.
		res := experiments.NewJobResult(experiments.JobSpec{
			Scale:      *scale,
			Iterations: *iters,
			Apps:       []string{app.Name()},
			Mode:       *mode,
			Fault:      *faultSpec,
			Sample:     *sampleSpec,
		}, experiments.StateDone)
		res.Analysis = &snap
		if err := cli.WriteValueJSONFile(*jsonOut, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote analysis snapshot to %s\n", *jsonOut)
	}
	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	return nil
}
