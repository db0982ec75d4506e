// Command nvperf is the performance-sensitivity simulator front end
// (paper §V / Figure 12).
//
// It re-executes a mini-application against the trace-driven out-of-order
// core model once per memory technology, varying only the main-memory
// access latency (Table IV), and reports the normalized runtimes.
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

	fmt.Fprintf(out, "%s latency sweep (%d iteration(s), scale %.2f)\n", *appName, *iters, *scale)
	fmt.Fprintf(out, "%12s %14s %10s %8s %14s %14s\n",
		"latency (ns)", "cycles", "normalized", "IPC", "mem accesses", "prefetch hits")
	reg := obs.NewRegistry()
	var base float64
	for _, lat := range lats {
		c := cpusim.MustNew(cpusim.PaperConfig(lat))
		ls := []obs.Label{obs.L("app", *appName), obs.L("latency_ns", strconv.FormatFloat(lat, 'g', -1, 64))}
		// The core is a batched trace.PerfSink: the tracer stages events and
		// flushes references plus instruction gaps in one call per batch.
		stack, _, err := pipeline.Run(context.Background(), pipeline.Config{Perf: c, Metrics: reg, Labels: ls},
			*appName, *scale, *iters)
		if err != nil {
			return err
		}
		st := c.Stats()
		if base == 0 {
			base = st.Cycles
		}
		reg.Gauge("cpusim_cycles", ls...).Set(st.Cycles)
		reg.Gauge("cpusim_normalized_runtime", ls...).Set(st.Cycles / base)
		reg.Gauge("cpusim_ipc", ls...).Set(st.IPC)
		reg.Gauge("cpusim_mem_accesses", ls...).Set(float64(st.MemAccesses))
		reg.Gauge("cpusim_prefetch_hits", ls...).Set(float64(st.PrefetchHits))
		stack.Tracer.ExportMetrics(reg, ls...)
		fmt.Fprintf(out, "%12.0f %14.0f %10.3f %8.2f %14d %14d\n",
			lat, st.Cycles, st.Cycles/base, st.IPC, st.MemAccesses, st.PrefetchHits)
	}
	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	return nil
}
