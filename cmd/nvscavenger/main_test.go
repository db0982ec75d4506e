package main

import (
	"bytes"
	"strings"
	"testing"

	"os"
	"path/filepath"

	"nvscavenger/internal/core"
	"nvscavenger/internal/experiments"
)

func TestRunFastMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"gtc", "memory footprint", "stack data", "global+heap objects"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSlowModeWithPlacement(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "cam", "-scale", "0.05", "-iterations", "3",
		"-mode", "slow", "-placement", "-endurance", "-category", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"stack frames by references", "hybrid placement", "category-1", "endurance"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -app must error")
	}
	if err := run([]string{"-app", "nonesuch"}, &out); err == nil {
		t.Error("unknown app must error")
	}
	if err := run([]string{"-app", "gtc", "-mode", "weird"}, &out); err == nil {
		t.Error("unknown mode must error")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag must error")
	}
}

func TestRunJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	var out bytes.Buffer
	err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "2",
		"-placement", "-json", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := experiments.DecodeJobResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != experiments.SchemaVersion || res.State != experiments.StateDone {
		t.Fatalf("result envelope = version %d state %q", res.SchemaVersion, res.State)
	}
	if res.Spec.Scale != 0.05 || res.Spec.Iterations != 2 || len(res.Spec.Apps) != 1 {
		t.Fatalf("result spec not echoed: %+v", res.Spec)
	}
	if res.Analysis == nil {
		t.Fatal("-json result must embed the analysis snapshot")
	}
	snap := *res.Analysis
	if snap.SchemaVersion != core.SnapshotSchemaVersion {
		t.Errorf("snapshot schema_version = %d, want %d", snap.SchemaVersion, core.SnapshotSchemaVersion)
	}
	if snap.App != "gtc" || len(snap.Objects) == 0 || snap.Placement == nil {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
	if snap.Metrics == nil {
		t.Fatal("-json snapshot must embed the metrics block")
	}
	if v, ok := snap.Metrics.Counter("runner_runs_total"); !ok || v != 1 {
		t.Errorf("embedded metrics runner_runs_total = %d, %v; want 1, true", v, ok)
	}
}

// TestShardedMetricsMatchPipelineSeries: the pipeline_* stage series of
// -metrics are identical whether the run is sharded or not — the unsharded
// run folds them from its stats tap at Close, the sharded one publishes the
// same fold from the merged totals.
func TestShardedMetricsMatchPipelineSeries(t *testing.T) {
	pipelineLines := func(shards string) string {
		path := filepath.Join(t.TempDir(), "metrics.txt")
		var out bytes.Buffer
		if err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "4",
			"-shards", shards, "-metrics", path}, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(string(data), "\n") {
			if strings.Contains(l, "pipeline_") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	want, got := pipelineLines("0"), pipelineLines("3")
	if !strings.Contains(want, "pipeline_events_total{app=gtc,mode=fast,stage=accesses}") {
		t.Fatalf("unsharded run published no accesses stage series:\n%s", want)
	}
	if got != want {
		t.Errorf("-shards 3 pipeline series differ from -shards 0:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestRunMetricsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.txt")
	var out bytes.Buffer
	err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "2",
		"-metrics", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"counter runner_runs_total 1",
		"counter runner_misses_total 1",
		"memtrace_object_cache_hit_ratio{app=gtc,mode=fast}",
		"runner_run_wall_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics file missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(out.String(), "wrote metrics snapshot") {
		t.Error("missing metrics confirmation line")
	}
}
