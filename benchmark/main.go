// Command benchmark is the repository's end-to-end and per-layer
// benchmark.  It runs closed-loop workloads against the reproduction —
// full reports, single runs, sampled runs and the nvserved daemon — checks
// every output against pinned digests and counts, and prints every metric
// by name with its unit and sample count.  The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// From the repository root:
//
//	bash benchmark/run.sh --workload run --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1 -runs 10 -out a.json     # every workload, ten runs each
//	bash benchmark/run.sh -workload report -trace 1 -trace-out spans.json
//	bash benchmark/run.sh -compare a.json b.json
//
// and from this directory, to regenerate the correctness pins:
//
//	go run . -pin testdata/expect.json
//
// A single workload run measures in this process.  -workload all, or
// -runs above 1, re-executes this binary once per workload and run, so
// memory and GC state belong to one workload.  See README.md for the
// workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// config is what one workload run measures with.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	suite    suite
	pins     *pins
	errw     io.Writer
}

// newWorkload returns the named workload.
func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "report":
		return &reportWorkload{pins: cfg.pins, errw: cfg.errw}, nil
	case "run", "sampled":
		return newRunsWorkload(name == "sampled", cfg.seed, cfg.pins, cfg.errw), nil
	case "served":
		return &servedWorkload{seed: cfg.seed, pins: cfg.pins, errw: cfg.errw}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// metricDef names one metric with its unit and the direction that is
// better.  BENCHMARK.json lists the same metrics with their bounds.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"unit_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"mrefs_per_s", "Mref/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%", "lower"},
	{"apps.floor_ns_per_ref", "ns", "lower"},
	{"memtrace.attr_ns_per_ref.fast", "ns", "lower"},
	{"memtrace.attr_ns_per_ref.slow", "ns", "lower"},
	{"memtrace.attr_ns_per_ref.sampled", "ns", "lower"},
	{"memtrace.object_cache_hit_ratio", "ratio", "higher"},
	{"memtrace.bucket_scan_length", "count", "lower"},
	{"pipeline.overhead_ns_per_ref", "ns", "lower"},
	{"cachesim.ns_per_ref", "ns", "lower"},
	{"cachesim.l1_miss_ratio", "ratio", "lower"},
	{"cachesim.l2_miss_ratio", "ratio", "lower"},
	{"cachesim.tx_per_kref", "count", "lower"},
	{"cpusim.ns_per_event", "ns", "lower"},
	{"cpusim.ipc", "ratio", "higher"},
	{"dramsim.ns_per_tx", "ns", "lower"},
	{"dramsim.row_hit_ratio", "ratio", "higher"},
	{"runner.busy_s", "s", "lower"},
	{"runner.parallel_eff", "ratio", "higher"},
	{"runner.hit_ratio", "ratio", "higher"},
	{"experiments.warm_s", "s", "lower"},
	{"experiments.exhibit_s.fig12", "s", "lower"},
	{"experiments.exhibit_s.sampling", "s", "lower"},
	{"experiments.exhibit_s.profilererror", "s", "lower"},
	{"experiments.exhibit_s.rest", "s", "lower"},
	{"served.submit_ms.p50", "ms", "lower"},
	{"served.wait_ms.p50", "ms", "lower"},
	{"served.report_get_ms.p50", "ms", "lower"},
	{"journal.append_us.p50", "us", "lower"},
	{"journal.append_us.p99", "us", "lower"},
	{"journal.commits_per_job", "count", "lower"},
}

// unitOf returns the unit of a named metric.
func unitOf(name string) string {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	secs := fs.Float64("seconds", 20, "how long each run keeps starting timed units")
	traceFlag := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans to this JSON file")
	runs := fs.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	out := fs.String("out", "", "write every run's full result to this JSON file")
	compare := fs.Bool("compare", false, "compare result files against the bounds in ./BENCHMARK.json: -compare base.json new.json [more.json ...]")
	pin := fs.String("pin", "", "compute the correctness pins and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	switch {
	case *compare:
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Args()); err != nil {
			return fail(err)
		}
		return 0
	case *pin != "":
		p, err := makePins(fullSuite)
		if err == nil {
			err = writePins(*pin, p)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	case fs.NArg() > 0:
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case *secs <= 0 || *runs < 1 || (*traceFlag != 0 && *traceFlag != 1):
		return fail(fmt.Errorf("need -seconds > 0, -runs >= 1 and -trace 0 or 1"))
	}

	if *workloadFlag == "all" || *runs > 1 {
		names := workloadNames
		if *workloadFlag != "all" {
			names = []string{*workloadFlag}
		}
		results, err := runChildren(names, *seed, *runs, *secs, *traceFlag, *traceOut, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		return finish(stdout, stderr, *out, results, summarize(results))
	}

	p, err := loadPins(fullSuite)
	if err != nil {
		return fail(err)
	}
	cfg := config{workload: *workloadFlag, seed: *seed, seconds: *secs, trace: *traceFlag == 1,
		traceOut: *traceOut, suite: fullSuite, pins: p, errw: stderr}
	res, err := measure(cfg)
	if err != nil {
		return fail(err)
	}
	if err := printResult(stdout, res); err != nil {
		return fail(err)
	}
	return finish(stdout, stderr, *out, []runResult{res}, summary(res))
}

// finish writes the result file, prints the JSON summary line and returns
// the exit code: 1 when any output was wrong.
func finish(stdout, stderr io.Writer, out string, results []runResult, sum contractLine) int {
	if out != "" {
		if err := writeResults(out, results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// contractLine is the JSON object on the last line of standard output.
type contractLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is one run's contract line: the end-to-end metrics, or the
// per-layer metrics for a traced run.
func summary(res runResult) contractLine {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		line.Metrics[d.Name] = valueUnit{Value: finite(m.Value), Unit: d.Unit}
	}
	return line
}

// summarize is the last line of a multi-run invocation: the totals of
// its runs, whose metrics each child has printed and -out collects.
func summarize(results []runResult) contractLine {
	line := contractLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	return line
}

// finite maps NaN and infinities, which JSON cannot carry, to 0; a run
// that produces one has failed outputs and reports correct=false.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printResult prints a run's metrics as a table of comment lines.
func printResult(w io.Writer, res runResult) error {
	e := res.Env
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %g  trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "# %s %s/%s  GOMAXPROCS %d  nproc %d  cpu %s\n", e.Go, e.OS, e.Arch, e.GOMAXPROCS, e.NProc, e.CPU)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "# metric\tvalue\tunit\tn")
	defs := endToEnd
	if res.Trace {
		defs = slices.Concat(endToEnd, perLayer)
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(tw, "# %s\t%.6g\t%s\t%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if t := res.Tail; t != nil {
		fmt.Fprintf(w, "# request tail: p%g %.4g ms (n=%d)\n", t.Percentile, t.MS, t.N)
	} else {
		fmt.Fprintf(w, "# request tail: none (no percentile has ten samples beyond it)\n")
	}
	if res.Trace {
		fmt.Fprintf(w, "# decomposition: floor + attribution + cachesim + pipeline overhead = %.1f%% of Session.Fast wall per reference\n", res.DecompositionPct)
	}
	_, err := fmt.Fprintf(w, "# checks: attempted %d, failed %d\n", res.Attempted, res.Failed)
	return err
}

// resultFile is the -out file: every run of one invocation.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func writeResults(path string, runs []runResult) error {
	data, err := json.MarshalIndent(resultFile{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return f.Runs, nil
}

// runChildren runs every named workload runs times, each run in a child
// process of this binary with seeds seed, seed+1, ..., and collects their
// results.  Child output is passed through; each traced child writes its
// spans next to traceOut, suffixed with its workload and seed.
func runChildren(names []string, seed int64, runs int, secs float64, trace int, traceOut string, stdout, stderr io.Writer) (results []runResult, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "nvbench-runs-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir, &err)
	for _, name := range names {
		for k := 0; k < runs; k++ {
			s := strconv.FormatInt(seed+int64(k), 10)
			out := filepath.Join(dir, name+"-"+s+".json")
			args := []string{"-workload", name, "-seed", s, "-seconds", strconv.FormatFloat(secs, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", out}
			if traceOut != "" {
				ext := filepath.Ext(traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ext)+"-"+name+"-"+s+ext)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			// Exit status 1 means some output was wrong: the child still
			// wrote its result file, which says which.
			var exit *exec.ExitError
			if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
				return results, fmt.Errorf("%s run with seed %s: %w", name, s, err)
			}
			rs, err := readResults(out)
			if err != nil {
				return results, fmt.Errorf("%s run with seed %s left no result: %w", name, s, err)
			}
			results = append(results, rs...)
		}
	}
	return results, nil
}

// env records where a run was measured.
type env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

func currentEnv() env {
	return env{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		GOMAXPROCS: gomaxprocs(), NProc: runtime.NumCPU(), CPU: cpuModel()}
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// cpuModel returns the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close() //nvlint:ignore errcontract read-only file; close cannot lose data
	lines := bufio.NewScanner(f)
	for lines.Scan() {
		if k, v, ok := strings.Cut(lines.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
