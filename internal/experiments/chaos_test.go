package experiments

import (
	"strings"
	"testing"

	"nvscavenger/internal/faults"
)

// TestWorkerFaultDegradesSweep: with every run crashing, a degraded session
// still completes the exhibit — an empty table plus one recorded failure per
// app — instead of aborting on the first error.
func TestWorkerFaultDegradesSweep(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(3),
		WithFaults(faults.MustParse("worker:every=1")))
	rows, err := s.Table1()
	if err != nil {
		t.Fatalf("degraded Table1: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("Table1 rows = %d with every run crashing, want 0", len(rows))
	}
	if !s.Degraded() {
		t.Fatal("session with armed faults must report Degraded")
	}
	errs := s.RunErrors()
	if len(errs) != len(AppNames) {
		t.Fatalf("RunErrors = %d entries, want one per app (%d): %v", len(errs), len(AppNames), errs)
	}
	for _, re := range errs {
		if !strings.Contains(re.Err, "worker crash") {
			t.Errorf("RunErrors[%s] = %q, want a worker-crash annotation", re.Key, re.Err)
		}
	}
}

// TestWorkerPanicFaultIsRecovered: panic-mode worker faults must be
// converted to recorded errors by the engine's recovery layer, not crash
// the sweep.
func TestWorkerPanicFaultIsRecovered(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(3), WithApps("gtc"),
		WithFaults(faults.MustParse("worker:every=1,mode=panic")))
	rows, err := s.Table1()
	if err != nil {
		t.Fatalf("degraded Table1: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("Table1 rows = %d, want 0", len(rows))
	}
	errs := s.RunErrors()
	if len(errs) != 1 || !strings.Contains(errs[0].Err, "recovered panic") {
		t.Fatalf("RunErrors = %v, want one recovered-panic annotation", errs)
	}
}

// TestChaosDeterministicAcrossJobs is the scheduling-independence check for
// the whole degraded path: the same seeded fault spec must fail the same
// runs — and leave the same survivors — whether the sweep executes
// sequentially or on a worker pool.
func TestChaosDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) ([]Table1Row, []RunError) {
		s := NewSession(WithScale(0.05), WithIterations(3), WithJobs(jobs),
			WithFaults(faults.MustParse("worker:prob=0.5,seed=9")))
		rows, err := s.Table1()
		if err != nil {
			t.Fatalf("jobs=%d Table1: %v", jobs, err)
		}
		return rows, s.RunErrors()
	}
	seqRows, seqErrs := run(1)
	parRows, parErrs := run(4)

	if len(seqErrs) == 0 || len(seqErrs) == len(AppNames) {
		t.Fatalf("want a partial failure set for this seed, got %d of %d failed", len(seqErrs), len(AppNames))
	}
	if len(seqRows) != len(parRows) {
		t.Fatalf("survivor rows: %d (jobs=1) vs %d (jobs=4)", len(seqRows), len(parRows))
	}
	for i := range seqRows {
		if seqRows[i] != parRows[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, seqRows[i], parRows[i])
		}
	}
	if len(seqErrs) != len(parErrs) {
		t.Fatalf("RunErrors: %d (jobs=1) vs %d (jobs=4)\nseq: %v\npar: %v", len(seqErrs), len(parErrs), seqErrs, parErrs)
	}
	for i := range seqErrs {
		if seqErrs[i] != parErrs[i] {
			t.Errorf("RunErrors[%d] differs: %+v vs %+v", i, seqErrs[i], parErrs[i])
		}
	}
}

// TestSinkFaultAnnotatesEveryApp: an always-tripping sink tap fails each
// run at its first flush, and the degraded session names every app.
func TestSinkFaultAnnotatesEveryApp(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(3), WithApps("gtc", "s3d"),
		WithFaults(faults.MustParse("sink:every=1,seed=7")))
	rows, err := s.Table5()
	if err != nil {
		t.Fatalf("degraded Table5: %v", err)
	}
	if len(rows) != 0 {
		t.Fatalf("Table5 rows = %d with every flush failing, want 0", len(rows))
	}
	if got := len(s.RunErrors()); got != 2 {
		t.Fatalf("RunErrors = %d entries, want 2: %v", got, s.RunErrors())
	}
}

// TestHealthySessionIsNotDegraded: without faults the
// legacy contract holds — no degradation markers, no recorded failures.
func TestHealthySessionIsNotDegraded(t *testing.T) {
	s := NewSession(WithScale(0.05), WithIterations(3), WithApps("gtc"))
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if s.Degraded() || len(s.RunErrors()) != 0 {
		t.Fatalf("healthy session: Degraded=%v RunErrors=%v", s.Degraded(), s.RunErrors())
	}
}
