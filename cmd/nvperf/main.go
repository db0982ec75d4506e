// Command nvperf is the performance-sensitivity simulator front end
// (paper §V / Figure 12).
//
// It executes a mini-application once and feeds its reference stream to one
// trace-driven out-of-order core model per memory technology, varying only
// the main-memory access latency (Table IV), and reports the normalized
// runtimes.
//
// Usage:
//
//	nvperf -app nek5000 [-scale 1.0] [-iterations 1] [-latencies 10,12,20,100]
package main

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nvscavenger/internal/cli"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/pipeline"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/mdmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

func main() { cli.Main("nvperf", run) }

func run(args []string, out io.Writer) error {
	fs := cli.NewFlagSet("nvperf")
	appName := fs.String("app", "", "application to simulate: "+cli.AppList())
	scale := fs.Float64("scale", 1.0, "problem scale")
	iters := fs.Int("iterations", 1, "main-loop iterations to simulate (the paper uses 1)")
	latList := fs.String("latencies", "10,12,20,100", "memory latencies in ns (comma separated; first is the baseline)")
	metricsOut := fs.String("metrics", "", "write the sweep's observability snapshot to this file (.json for JSON, text otherwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.RequireApp(fs, *appName); err != nil {
		return err
	}
	var lats []float64
	for _, s := range strings.Split(*latList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad latency %q: %w", s, err)
		}
		lats = append(lats, v)
	}
	if len(lats) == 0 {
		return fmt.Errorf("no latencies given")
	}

	// One execution feeds every latency: the sweep is a batched
	// trace.PerfSink that hands each flushed batch to one core per latency.
	sweep, err := cpusim.NewSweep(strings.Split(*latList, ","), lats)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	app := obs.L("app", *appName)
	stack, _, err := pipeline.Run(context.Background(), pipeline.Config{Perf: sweep, Metrics: reg, Labels: []obs.Label{app}},
		*appName, *scale, *iters)
	if err != nil {
		return err
	}
	stack.Tracer.ExportMetrics(reg, app)

	fmt.Fprintf(out, "%s latency sweep (%d iteration(s), scale %.2f)\n", *appName, *iters, *scale)
	fmt.Fprintf(out, "%12s %14s %10s %8s %14s %14s\n",
		"latency (ns)", "cycles", "normalized", "IPC", "mem accesses", "prefetch hits")
	for i, res := range sweep.Results() {
		st := sweep.Cores()[i].Stats()
		ls := []obs.Label{app, obs.L("latency_ns", strconv.FormatFloat(res.MemLatencyNS, 'g', -1, 64))}
		reg.Gauge("cpusim_cycles", ls...).Set(st.Cycles)
		reg.Gauge("cpusim_normalized_runtime", ls...).Set(res.Normalized)
		reg.Gauge("cpusim_ipc", ls...).Set(st.IPC)
		reg.Gauge("cpusim_mem_accesses", ls...).Set(float64(st.MemAccesses))
		reg.Gauge("cpusim_prefetch_hits", ls...).Set(float64(st.PrefetchHits))
		fmt.Fprintf(out, "%12.0f %14.0f %10.3f %8.2f %14d %14d\n",
			res.MemLatencyNS, st.Cycles, res.Normalized, st.IPC, st.MemAccesses, st.PrefetchHits)
	}
	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	return nil
}
