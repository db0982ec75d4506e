package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: nvscavenger/internal/pipeline
cpu: AMD EPYC 7B13
BenchmarkPipelineThroughput/batched-8         	      37	  31415926 ns/op	    524288 tx
BenchmarkPipelineThroughput/per-transaction-8 	      12	  99999999 ns/op	    524288 tx
BenchmarkPipelineInstrumentationOverhead/off-8	       5	 200000000 ns/op
BenchmarkPipelineInstrumentationOverhead/on-8 	       5	 210000000 ns/op
PASS
ok  	nvscavenger/internal/pipeline	6.283s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != snapshotSchemaVersion {
		t.Errorf("schema_version = %d", snap.SchemaVersion)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.CPU != "AMD EPYC 7B13" {
		t.Errorf("environment = %q/%q/%q", snap.Goos, snap.Goarch, snap.CPU)
	}
	if len(snap.Packages) != 1 || snap.Packages[0] != "nvscavenger/internal/pipeline" {
		t.Errorf("packages = %v", snap.Packages)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("benchmarks = %d, want 4", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.Name != "PipelineThroughput/batched" || b.Procs != 8 || b.Iterations != 37 {
		t.Errorf("first benchmark = %+v", b)
	}
	if b.Metrics["ns/op"] != 31415926 || b.Metrics["tx"] != 524288 {
		t.Errorf("first benchmark metrics = %v", b.Metrics)
	}
	if got := snap.Benchmarks[2].Metrics; len(got) != 1 || got["ns/op"] != 200000000 {
		t.Errorf("overhead/off metrics = %v", got)
	}
}

func TestParseRejectsFailAndGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-8 3 1 ns/op\nFAIL\n")); err == nil {
		t.Error("FAIL line must abort the parse")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-8 many 1 ns/op\n")); err == nil {
		t.Error("non-numeric iteration count must error")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-8 3 fast ns/op\n")); err == nil {
		t.Error("non-numeric metric value must error")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-8 3 1\n")); err == nil {
		t.Error("odd field count must error")
	}
}

// TestParseNoProcsSuffix: under GOMAXPROCS=1 go test emits no -N suffix.
func TestParseNoProcsSuffix(t *testing.T) {
	snap, err := Parse(strings.NewReader("BenchmarkSolo 100 12 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b := snap.Benchmarks[0]; b.Name != "Solo" || b.Procs != 1 {
		t.Errorf("benchmark = %+v", b)
	}
}

// TestParseKeyedSubBenchmark: a "key=value" sub-benchmark keeps its whole
// name, and only the trailing -N is read as GOMAXPROCS.
func TestParseKeyedSubBenchmark(t *testing.T) {
	b, err := parseResult("BenchmarkPipelineSampledTracing/period=64-4 10 5806449 ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "PipelineSampledTracing/period=64" || b.Procs != 4 {
		t.Errorf("benchmark = %+v, want name PipelineSampledTracing/period=64 procs 4", b)
	}
}

func TestRunWritesSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "snap.json")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-in", in, "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	// The raw bench text is echoed so the tool is pipeline-transparent.
	if stdout.String() != sampleBench {
		t.Errorf("stdout did not echo the input:\n%s", stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != snapshotSchemaVersion || len(snap.Benchmarks) != 4 {
		t.Errorf("snapshot = version %d, %d benchmarks", snap.SchemaVersion, len(snap.Benchmarks))
	}
}

// compareBaseline is sampleBench's parse with shifted timings, saved as a
// baseline file by the compare tests.
const compareBaselineJSON = `{
  "schema_version": 1,
  "benchmarks": [
    {"name": "PipelineThroughput/batched", "procs": 8, "iterations": 10,
     "metrics": {"ns/op": 62831852, "tx": 524288, "allocs/op": 0}},
    {"name": "PipelineThroughput/per-transaction", "procs": 8, "iterations": 10,
     "metrics": {"ns/op": 99999999, "tx": 524288}},
    {"name": "PipelineRetired/old", "procs": 8, "iterations": 1,
     "metrics": {"ns/op": 1}}
  ]
}`

func writeCompareFixtures(t *testing.T) (benchTxt, baseline string) {
	t.Helper()
	dir := t.TempDir()
	benchTxt = filepath.Join(dir, "bench.txt")
	baseline = filepath.Join(dir, "base.json")
	if err := os.WriteFile(benchTxt, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, []byte(compareBaselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return benchTxt, baseline
}

// TestCompareReportsDeltas: every shared metric gets a delta row, one-sided
// benchmarks are listed as new/removed, and report-only mode never fails.
func TestCompareReportsDeltas(t *testing.T) {
	benchTxt, baseline := writeCompareFixtures(t)
	var out bytes.Buffer
	if err := run([]string{"-in", benchTxt, "-compare", baseline}, &out); err != nil {
		t.Fatalf("report-only compare failed: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"PipelineThroughput/batched",
		"ns/op",
		"-50.0%", // 62831852 -> 31415926
		"+0.0%",  // per-transaction unchanged
		"(new)",  // InstrumentationOverhead absent from the baseline
		"(removed)",
		"PipelineRetired/old",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q:\n%s", want, got)
		}
	}
	// allocs/op exists only in the baseline for batched: not a shared
	// metric, so no row (and no false regression).
	if strings.Contains(got, "allocs/op") {
		t.Errorf("unshared metric leaked into the diff:\n%s", got)
	}
}

// TestCompareThresholdGates: a regression beyond the threshold fails, a
// speedup never does.
func TestCompareThresholdGates(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	baseline := filepath.Join(dir, "base.json")
	// Fresh run is 2x slower than the recorded baseline and allocates.
	if err := os.WriteFile(benchTxt, []byte("BenchmarkSlow-8 5 200 ns/op 3 allocs/op\nPASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, []byte(`{"schema_version":1,"benchmarks":[
		{"name":"Slow","procs":8,"iterations":5,"metrics":{"ns/op":100,"allocs/op":0}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-in", benchTxt, "-compare", baseline, "-threshold", "10"}, &out)
	if err == nil {
		t.Fatal("2x ns/op regression plus alloc growth must fail a 10% threshold")
	}
	if !strings.Contains(err.Error(), "ns/op") || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("gate error does not name both regressions: %v", err)
	}
	if err := run([]string{"-in", benchTxt, "-compare", baseline}, &out); err != nil {
		t.Errorf("threshold 0 must stay report-only: %v", err)
	}
	// Swap roles: the fresh run is the faster one.
	if err := os.WriteFile(baseline, []byte(`{"schema_version":1,"benchmarks":[
		{"name":"Slow","procs":8,"iterations":5,"metrics":{"ns/op":400,"allocs/op":3}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", benchTxt, "-compare", baseline, "-threshold", "10"}, &out); err != nil {
		t.Errorf("speedup must pass the gate: %v", err)
	}
}

// TestCompareRejectsBadBaseline: future schemas and -out/-compare together
// are refused.
func TestCompareRejectsBadBaseline(t *testing.T) {
	benchTxt, baseline := writeCompareFixtures(t)
	if err := os.WriteFile(baseline, []byte(`{"schema_version":99,"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", benchTxt, "-compare", baseline}, &out); err == nil {
		t.Error("future-schema baseline must be rejected")
	}
	if err := run([]string{"-in", benchTxt, "-compare", baseline, "-out", "x.json"}, &out); err == nil {
		t.Error("-out with -compare must be rejected")
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-in", empty}, &out); err == nil {
		t.Error("input without benchmark lines must error")
	}
	if err := run([]string{"-in", filepath.Join(dir, "missing.txt")}, &out); err == nil {
		t.Error("missing input file must error")
	}
	if err := run([]string{"-nonsense"}, &out); err == nil {
		t.Error("unknown flag must error")
	}
}
