// Command nvpower is the memory power simulator front end (paper §IV).
//
// It prices main-memory traffic on DDR3, PCRAM, STTRAM and MRAM devices and
// reports per-component average power plus the Table VI normalization.  The
// traffic comes either from running a mini-application through the cache
// hierarchy, or from a previously captured binary transaction trace.
//
// Usage:
//
//	nvpower -app gtc [-scale 1.0] [-iterations 10] [-policy open]
//	nvpower -trace mem.trc [-policy closed]
//	nvpower -app gtc -dump mem.trc        # capture the filtered trace
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/cli"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/trace"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/mdmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

func main() { cli.Main("nvpower", run) }

func run(args []string, out io.Writer) error {
	fs := cli.NewFlagSet("nvpower")
	appName := fs.String("app", "", "application to trace (alternative to -trace): "+cli.AppList())
	traceFile := fs.String("trace", "", "binary transaction trace to replay (alternative to -app)")
	dump := fs.String("dump", "", "write the filtered transaction trace to this file")
	scale := fs.Float64("scale", 1.0, "problem scale")
	iters := fs.Int("iterations", 10, "main-loop iterations")
	policy := fs.String("policy", "open", "row policy: open or closed page")
	metricsOut := fs.String("metrics", "", "write the run's observability snapshot to this file (.json for JSON, text otherwise)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.CheckRunSize(*scale, *iters); err != nil {
		return err
	}

	rowPolicy := dramsim.OpenPage
	switch *policy {
	case "open":
	case "closed":
		rowPolicy = dramsim.ClosedPage
	default:
		return fmt.Errorf("unknown -policy %q (open or closed)", *policy)
	}

	reg := obs.NewRegistry()
	var txs []trace.Transaction
	switch {
	case *appName != "" && *traceFile != "":
		return fmt.Errorf("-app and -trace are mutually exclusive")
	case *appName != "":
		if err := cli.ValidateApp(*appName); err != nil {
			return err
		}
		// With -dump the trace writer rides the pipeline as a tee'd
		// transaction sink, so the file fills in batches during the run
		// instead of from a second pass over the captured slice.
		var dumpWriter *trace.Writer
		var dumpFile *os.File
		var txSinks []trace.TxSink
		if *dump != "" {
			var err error
			dumpFile, err = os.Create(*dump)
			if err != nil {
				return err
			}
			dumpWriter = trace.NewTransactionWriter(dumpFile)
			if strings.HasSuffix(*dump, ".gz") {
				dumpWriter = trace.NewCompressedTransactionWriter(dumpFile)
			}
			txSinks = append(txSinks, dumpWriter)
		}
		cacheCfg := cachesim.PaperConfig()
		stack, _, err := pipeline.Run(context.Background(), pipeline.Config{
			StackMode: memtrace.FastStack,
			Cache:     &cacheCfg,
			CaptureTx: true,
			TxSinks:   txSinks,
			Metrics:   reg,
			Labels:    []obs.Label{obs.L("app", *appName)},
		}, *appName, *scale, *iters)
		if dumpWriter != nil {
			werr := dumpWriter.Close()
			if cerr := dumpFile.Close(); werr == nil {
				werr = cerr
			}
			if err == nil {
				err = werr
			}
		}
		if err != nil {
			return err
		}
		txs = stack.Transactions()
		hier := stack.Hierarchy
		hier.ExportMetrics(reg, obs.L("app", *appName))
		stack.Tracer.ExportMetrics(reg, obs.L("app", *appName))
		fmt.Fprintf(out, "%s: %d references filtered to %d memory transactions (%.2f%%)\n",
			*appName, hier.L1Stats().Accesses(), len(txs),
			float64(len(txs))/float64(hier.L1Stats().Accesses())*100)
		if dumpWriter != nil {
			fmt.Fprintf(out, "wrote %d transactions to %s\n", dumpWriter.Count(), *dump)
		}
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close() //nvlint:ignore errcontract read-only trace file; close cannot lose data
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		// Decode through a batched, counted capture stage so file replays
		// surface the same pipeline metrics as live runs.
		capture := &pipeline.Capture[trace.Transaction]{}
		stage := pipeline.Counted[trace.Transaction](reg, "replay", capture, obs.L("trace", *traceFile))
		batch := make([]trace.Transaction, 0, trace.DefaultTxBufferSize)
		for {
			t, err := r.ReadTransaction()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			batch = append(batch, t)
			if len(batch) == cap(batch) {
				if err := stage.Flush(batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		if len(batch) > 0 {
			if err := stage.Flush(batch); err != nil {
				return err
			}
		}
		txs = capture.Items
		fmt.Fprintf(out, "replaying %d transactions from %s\n", len(txs), *traceFile)
	default:
		fs.Usage()
		return fmt.Errorf("need -app or -trace")
	}
	if len(txs) == 0 {
		return fmt.Errorf("no memory transactions to simulate")
	}

	if *dump != "" && *traceFile != "" {
		// Re-dumping a replayed trace: feed the decoded transactions through
		// the same batched writer stage the live pipeline uses.
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		w := trace.NewTransactionWriter(f)
		if strings.HasSuffix(*dump, ".gz") {
			w = trace.NewCompressedTransactionWriter(f)
		}
		stage := pipeline.Counted(reg, "dump", pipeline.TxStage(w), obs.L("trace", *traceFile))
		werr := stage.Flush(txs)
		if werr == nil {
			werr = w.Close()
		}
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(out, "wrote %d transactions to %s\n", len(txs), *dump)
	}

	reps, err := dramsim.Compare(dramsim.PaperGeometry(), rowPolicy, dramsim.Profiles(), txs)
	if err != nil {
		return err
	}
	for _, r := range reps {
		r.ExportMetrics(reg)
	}
	norm := dramsim.Normalize(reps)
	fmt.Fprintf(out, "\n%-8s %10s %10s %10s %10s %10s %12s %10s\n",
		"device", "total mW", "burst", "act/pre", "bg", "refresh", "elapsed ms", "normalized")
	for i, r := range reps {
		fmt.Fprintf(out, "%-8s %10.1f %10.1f %10.1f %10.1f %10.1f %12.3f %10.3f\n",
			r.Device, r.TotalMW, r.BurstMW, r.ActPreMW, r.BackgroundMW, r.RefreshMW,
			r.ElapsedNS/1e6, norm[i])
	}
	fmt.Fprintf(out, "\nrow policy %s; row-buffer hit ratio (DDR3 run): %.1f%%\n",
		rowPolicy, reps[0].RowHitRatio()*100)
	if *metricsOut != "" {
		if err := cli.WriteMetricsFile(*metricsOut, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics snapshot to %s\n", *metricsOut)
	}
	return nil
}
