package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/pipeline"
)

// countingRuns counts the executions of the "experiments-counting" app.
var countingRuns atomic.Int64

// countingApp sweeps two heap arrays per timestep and counts its runs, so
// a test can tell how many times an exhibit executed it.
type countingApp struct{ a, b memtrace.F64 }

func (c *countingApp) Name() string                { return "experiments-counting" }
func (c *countingApp) Description() string         { return "counts its own executions" }
func (c *countingApp) Post(*memtrace.Tracer) error { return nil }
func (c *countingApp) Check() error                { return nil }

func (c *countingApp) Setup(tr *memtrace.Tracer) error {
	countingRuns.Add(1)
	c.a, _ = tr.HeapF64("a", "once_test.go:1", 32*1024)
	c.b, _ = tr.HeapF64("b", "once_test.go:2", 1024)
	for i := 0; i < c.a.Len(); i++ {
		c.a.Store(i, float64(i))
	}
	return nil
}

func (c *countingApp) Step(_ *memtrace.Tracer, iter int) error {
	for i := 0; i < c.a.Len(); i += 4 {
		c.b.Store(i%c.b.Len(), c.a.Load(i)+float64(iter))
	}
	return nil
}

func init() {
	apps.Register("experiments-counting", func(float64) apps.App { return &countingApp{} })
}

// TestLatencySweepRunsAppOnce: one sweep key executes the app once, and its
// results equal one independent run per latency — the re-execution path
// the sweep replaced.  The run's refs stay events x latencies.
func TestLatencySweepRunsAppOnce(t *testing.T) {
	const app = "experiments-counting"
	s := NewSession(WithScale(0.05), WithIterations(3), WithJobs(1))
	before := countingRuns.Load()
	got, err := s.latencySweep(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.latencySweep(context.Background(), app); err != nil {
		t.Fatal(err)
	}
	if n := countingRuns.Load() - before; n != 1 {
		t.Fatalf("app executed %d times for one sweep key, want 1", n)
	}

	want := make([]cpusim.SweepResult, len(Figure12Latencies))
	var events uint64
	var base float64
	for i, lat := range Figure12Latencies {
		core := cpusim.MustNew(cpusim.PaperConfig(lat))
		if _, _, err := pipeline.Run(context.Background(), pipeline.Config{StackMode: memtrace.FastStack, Perf: core},
			app, 0.05, 1); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = core.Cycles()
		}
		events += core.Stats().MemRefs
		want[i] = cpusim.SweepResult{Device: Figure12Devices[i], MemLatencyNS: lat, Cycles: core.Cycles(), Normalized: core.Cycles() / base}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep = %+v\nindependent runs = %+v", got, want)
	}
	runs := s.Metrics().Runs
	if len(runs) != 1 || runs[0].Refs != events {
		t.Errorf("runs = %+v, want one run with %d refs (events x latencies)", runs, events)
	}
}

// TestPerfectRunServesBothStudies: the sampling study's period-1 baseline
// and the profiler-error study's perfect profiler are one execution under
// the profiler/perfect key.
func TestPerfectRunServesBothStudies(t *testing.T) {
	const app = "experiments-counting"
	s := NewSession(WithScale(0.05), WithIterations(3), WithJobs(2))
	before := countingRuns.Load()
	if _, err := s.SamplingStudy(app, []int{1, 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProfilerErrorStudy(app, []memtrace.SampleSpec{{Mode: memtrace.SampleBernoulli, Rate: 16, Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	// perfect, period-16 and the Bernoulli profiler.
	if n := countingRuns.Load() - before; n != 3 {
		t.Fatalf("app executed %d times, want 3", n)
	}
	for _, r := range s.Metrics().Runs {
		if r.Key.Mode == "sampling" && r.Key.Profile == "period-1" {
			t.Errorf("unexpected run %s: period 1 is the perfect profiler's run", r.Key)
		}
	}
}

// TestFigure12PerfFaultOnePerApp: a perf-sink fault fails each app's single
// sweep run with the message the per-latency replays produced, at any jobs
// count.
func TestFigure12PerfFaultOnePerApp(t *testing.T) {
	run := func(jobs int) []RunError {
		s := NewSession(WithScale(0.05), WithIterations(3), WithJobs(jobs),
			WithFaults(faults.MustParse("perf:every=5,seed=7")))
		rows, err := s.Figure12()
		if err != nil {
			t.Fatalf("jobs=%d degraded Figure12: %v", jobs, err)
		}
		if len(rows) != 0 {
			t.Fatalf("jobs=%d Figure12 rows = %d with the fifth flush failing, want 0", jobs, len(rows))
		}
		return s.RunErrors()
	}
	seq, par := run(1), run(4)
	if len(seq) != 2 {
		t.Fatalf("RunErrors = %v, want one per app", seq)
	}
	for _, re := range seq {
		if !strings.Contains(re.Key, "/perf-sweep") || !strings.Contains(re.Err, "perf flush call 5") {
			t.Errorf("RunErrors[%s] = %q, want the perf-sweep run failing at perf flush call 5", re.Key, re.Err)
		}
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("RunErrors differ across jobs:\njobs=1: %v\njobs=4: %v", seq, par)
	}
}

// TestSamplingStudiesDegradeDeterministically: under worker crashes both
// sampling studies run every sibling and drop only the failed rows, so the
// exhibit text and the failure set are the same on every repetition and
// at any jobs count.
func TestSamplingStudiesDegradeDeterministically(t *testing.T) {
	run := func(jobs int) (string, []RunError) {
		s := NewSession(WithScale(0.05), WithIterations(3), WithJobs(jobs),
			WithFaults(faults.MustParse("worker:prob=0.5,seed=9")))
		var b strings.Builder
		rows, err := s.SamplingStudy("nek5000", []int{1, 16, 64, 256})
		if err != nil {
			t.Fatalf("jobs=%d SamplingStudy: %v", jobs, err)
		}
		b.WriteString(FormatSamplingStudy("nek5000", rows))
		prof, err := s.ProfilerErrorStudy("nek5000", DefaultProfilerErrorSpecs)
		if err != nil {
			t.Fatalf("jobs=%d ProfilerErrorStudy: %v", jobs, err)
		}
		b.WriteString(FormatProfilerErrorStudy("nek5000", prof))
		return b.String(), s.RunErrors()
	}
	wantText, wantErrs := run(1)
	if len(wantErrs) == 0 {
		t.Fatal("want a partial failure set for this seed, got none")
	}
	for rep := 0; rep < 5; rep++ {
		for _, jobs := range []int{1, 4} {
			text, errs := run(jobs)
			if text != wantText {
				t.Fatalf("rep %d jobs=%d: exhibit text differs\ngot:\n%s\nwant:\n%s", rep, jobs, text, wantText)
			}
			if !reflect.DeepEqual(errs, wantErrs) {
				t.Fatalf("rep %d jobs=%d: RunErrors differ\ngot:  %v\nwant: %v", rep, jobs, errs, wantErrs)
			}
		}
	}
}
