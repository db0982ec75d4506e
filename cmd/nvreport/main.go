// Command nvreport regenerates every table and figure of the paper's
// evaluation section in one run.  The instrumented app runs behind the
// exhibits fan out across a bounded worker pool (internal/runner); -jobs
// bounds the pool and -progress streams per-run wall time and reference
// throughput to stderr.  Parallel output is byte-identical to -jobs 1.
//
// The exhibit registry and report generator live in internal/experiments
// (Exhibits, Session.WriteReport); this command is the batch frontend and
// cmd/nvserved is the service frontend over the same generator.
//
// Usage:
//
//	nvreport                     # everything, calibrated scale
//	nvreport -scale 0.25         # faster, reduced problem sizes
//	nvreport -only table5,fig12  # a subset
//	nvreport -jobs 8             # bound the worker pool explicitly
//	nvreport -metrics m.json     # also dump the observability snapshot
//	nvreport -fault sink:every=50,seed=7   # seeded chaos run, degrades gracefully
//
// Exhibits: table1, table5, fig2, fig3, fig4, fig5, fig6, fig7, fig8,
// fig9, fig10, fig11, table6, fig12, placement.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nvscavenger/internal/cli"
	"nvscavenger/internal/experiments"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/runner"
)

func main() { cli.Main("nvreport", run) }

// progressPrinter returns a runner progress callback writing one line per
// run start/completion; it is invoked from worker goroutines, so the
// writer is serialized with a mutex.
func progressPrinter(w io.Writer) func(runner.Event) {
	var mu sync.Mutex
	start := time.Now()
	return func(ev runner.Event) {
		mu.Lock()
		defer mu.Unlock()
		elapsed := time.Since(start).Seconds()
		switch ev.Kind {
		case runner.EventStart:
			fmt.Fprintf(w, "[%7.2fs] %-28s started\n", elapsed, ev.Key)
		case runner.EventDone:
			mrefs := 0.0
			if ev.Wall > 0 {
				mrefs = float64(ev.Refs) / 1e6 / ev.Wall.Seconds()
			}
			fmt.Fprintf(w, "[%7.2fs] %-28s done in %.2fs (%.1fM refs/s)\n",
				elapsed, ev.Key, ev.Wall.Seconds(), mrefs)
		case runner.EventError:
			fmt.Fprintf(w, "[%7.2fs] %-28s failed after %.2fs: %v\n",
				elapsed, ev.Key, ev.Wall.Seconds(), ev.Err)
		}
	}
}

func run(args []string, out io.Writer) error {
	fs := cli.NewFlagSet("nvreport")
	scale := fs.Float64("scale", 1.0, "problem scale for every experiment")
	iters := fs.Int("iterations", 10, "main-loop iterations")
	only := fs.String("only", "", "comma-separated exhibit subset (e.g. table5,fig12)")
	jobs := fs.Int("jobs", 0, "maximum concurrent instrumented runs (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", true, "stream per-run progress lines to stderr")
	outdir := fs.String("outdir", "", "also write each exhibit to <outdir>/<name>.txt")
	metricsOut := fs.String("metrics", "", "write the run's observability snapshot to this file (.json for JSON, text otherwise)")
	faultSpec := fs.String("fault", "", "chaos run: deterministic fault spec, e.g. sink:every=50,seed=7 or worker:prob=0.3,seed=9 (degrades gracefully)")
	sampleSpec := fs.String("sample", "", "seeded sampled tracing for every instrumented run, e.g. bernoulli:rate=64,seed=7 or bytes:rate=4096 (default: observe every reference)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	var onlyNames []string
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			onlyNames = append(onlyNames, strings.TrimSpace(name))
		}
	}

	sessOpts := []experiments.Option{
		experiments.WithScale(*scale),
		experiments.WithIterations(*iters),
		experiments.WithJobs(*jobs),
	}
	if *faultSpec != "" {
		spec, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		sessOpts = append(sessOpts, experiments.WithFaults(spec))
	}
	if *sampleSpec != "" {
		spec, err := memtrace.ParseSampleSpec(*sampleSpec)
		if err != nil {
			return err
		}
		sessOpts = append(sessOpts, experiments.WithSample(spec))
	}
	if *progress {
		sessOpts = append(sessOpts, experiments.WithProgress(progressPrinter(os.Stderr)))
	}
	sess := experiments.NewSession(sessOpts...)
	start := time.Now()

	reportCfg := experiments.ReportConfig{Only: onlyNames, Now: time.Now}
	if *outdir != "" {
		dir := *outdir
		reportCfg.Tee = func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(dir, name+".txt"))
		}
	}
	if err := sess.WriteReport(out, reportCfg); err != nil {
		return err
	}

	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, sess.MetricsSnapshot()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nvreport: wrote metrics snapshot to %s\n", *metricsOut)
	}

	if *progress {
		m := sess.Metrics()
		if sum := m.WallSummary(); sum.Count() > 0 {
			elapsed := time.Since(start).Seconds()
			agg := 0.0
			if elapsed > 0 {
				agg = float64(m.TotalRefs()) / 1e6 / elapsed
			}
			fmt.Fprintf(os.Stderr,
				"nvreport: %d runs on %d workers in %.2fs (%d cache hits), run wall mean %.2fs max %.2fs, aggregate %.1fM refs/s\n",
				sum.Count(), sess.Jobs(), elapsed, m.Hits, sum.Mean(), sum.Max(), agg)
		}
	}
	return nil
}
