package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name        string
		base, next  []float64
		better      string
		bound       float64
		want        string
		wins, pairs int
	}{
		{"no bound is info", steady, steady, "lower", 0, "info", 0, 10},
		{"within bound is same", steady, []float64{104, 105, 103, 104, 106, 102, 104, 105, 103, 104}, "lower", 0.1, "same", 0, 10},
		{"worse than bound is a regression", steady, []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, "lower", 0.1, "regression", 0, 10},
		{"higher-is-better regression", steady, []float64{85, 86, 84, 85, 87, 83, 85, 86, 84, 85}, "higher", 0.1, "regression", 0, 10},
		{"nine of ten pairs and a median move beyond the spread is a gain", steady,
			[]float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 101}, "lower", 0.1, "gain", 9, 10},
		{"a gain needs ten pairs", steady[:5], []float64{90, 91, 89, 90, 92}, "lower", 0.1, "same", 5, 5},
		{"a gain needs nine tenths of the pairs", steady,
			[]float64{95, 96, 94, 95, 97, 93, 95, 96, 104, 103}, "lower", 0.1, "same", 8, 10},
		{"noise wider than the bound is unresolved", []float64{50, 150, 80, 120, 100}, []float64{100, 101, 99, 100, 102}, "lower", 0.1, "unresolved", 2, 5},
		{"noise wider than the bound but every run better", []float64{50, 150, 80, 120, 100}, []float64{40, 41, 39, 40, 42}, "lower", 0.1, "better", 5, 5},
	} {
		j := judge(tc.base, tc.next, tc.better, tc.bound)
		if j.verdict != tc.want || j.wins != tc.wins || j.pairs != tc.pairs {
			t.Errorf("%s: verdict %s, wins %d/%d; want %s, %d/%d", tc.name, j.verdict, j.wins, j.pairs, tc.want, tc.wins, tc.pairs)
		}
	}
}

func TestCompareFilesPrintsOneRowPerWorkloadAndMetric(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, unit float64, trace bool) string {
		var runs []runResult
		for i := 0; i < 3; i++ {
			r := runResult{Workload: "run", Trace: trace, Correct: true, Attempted: 5, Metrics: map[string]metric{
				"unit_s": {Value: unit + float64(i)*0.01, Unit: "s", N: 4},
			}}
			if trace {
				r.Metrics["trace.overhead_pct"] = metric{Value: 1.5, Unit: "%", N: 1}
			}
			runs = append(runs, r)
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bounds, []byte(`{"end_to_end":[{"name":"unit_s","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, bounds, []string{mk("a.json", 4, false), mk("b.json", 5, true)}); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "run ") {
			rows = append(rows, strings.Join(strings.Fields(line), " "))
		}
	}
	want := []string{
		"run unit_s s 4.01 [4, 4.02] 5.01 [5, 5.02] +24.9% 0/3 regression",
		"run trace.overhead_pct % - 1.5 [1.5, 1.5] - - info",
	}
	if !slices.Equal(rows, want) {
		t.Errorf("rows:\n%s\nwant:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}
}

// TestBenchmarkJSONMatchesTheCode checks that BENCHMARK.json declares
// exactly the workloads and metrics the command reports, with bounds of
// at most 0.25 and setup_s given the largest.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, the command runs %v", names, workloadNames)
	}
	var e2e []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxBound = max(maxBound, m.Bound)
		}
	}
	if setupBound <= maxBound {
		t.Errorf("setup_s bound %v is not the largest (another is %v)", setupBound, maxBound)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, the command reports %v", e2e, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer %v, the command reports %v", b.PerLayer, perLayer)
	}
}
