package served

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/journal"
	"nvscavenger/internal/obs"
)

// quickSpec is the cheapest real job: one exhibit at tiny scale.
func quickSpec() experiments.JobSpec {
	return experiments.JobSpec{Exhibits: []string{"table1"}, Scale: 0.05, Iterations: 2}
}

// TestSubmitAssignsOrderedIDs: IDs are deterministic and the job list
// preserves submission order.
func TestSubmitAssignsOrderedIDs(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := m.Submit(quickSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
	}
	want := []string{"job-1", "job-2", "job-3"}
	for i, id := range ids {
		if id != want[i] {
			t.Errorf("id %d = %s, want %s", i, id, want[i])
		}
	}
	jobs := m.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("job list = %d entries", len(jobs))
	}
	for i, job := range jobs {
		if job.ID() != want[i] {
			t.Errorf("list order %d = %s, want %s", i, job.ID(), want[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSubmissionSingleFlight: many clients submitting the same
// experiment concurrently share one set of executed runs through the
// shared cache, and every job still completes with a full report.
func TestConcurrentSubmissionSingleFlight(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Workers: 4, Queue: 32, Metrics: reg, Clock: fixedClock()})

	const clients = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = m.Submit(quickSpec())
		}(i)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var report string
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		res, err := jobs[i].Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != experiments.StateDone {
			t.Fatalf("client %d state = %s (%s)", i, res.State, res.Error)
		}
		if report == "" {
			report = res.Report
		} else if res.Report != report {
			t.Errorf("client %d report differs", i)
		}
	}

	snap := reg.Snapshot()
	runs, _ := snap.Counter("runner_runs_total")
	misses, _ := snap.Counter("runner_misses_total")
	if runs != misses {
		t.Errorf("runs = %d, misses = %d: a deduplicated run executed twice", runs, misses)
	}
	// table1 at one scale/iteration config: 4 apps, one run each.
	if runs != 4 {
		t.Errorf("executed runs = %d, want 4 (one per app, shared across %d clients)", runs, clients)
	}
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// shardsRemoved is the message every spec asking for more than one shard
// per run fails with.
const shardsRemoved = "intra-run sharding was removed"

// TestSubmitShardsCompatibility: the retired "shards" field still decodes.
// shards:1 is the one-stack run every job does and runs normally; anything
// larger is rejected at the door with the sharding-removed message.
func TestSubmitShardsCompatibility(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	defer drain(t, m)

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"shards":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), shardsRemoved) {
		t.Errorf("shards:3 submit = %d %s, want 400 with %q", resp.StatusCode, body, shardsRemoved)
	}

	res, code := postJob(t, ts, `{"exhibits":["table1"],"scale":0.05,"iterations":2,"shards":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("shards:1 submit status = %d, want 202", code)
	}
	if final := await(t, m, res.ID); final.State != experiments.StateDone {
		t.Fatalf("shards:1 job state = %s (%s)", final.State, final.Error)
	}
}

// TestRecoveryFailsShardedSpec: a journal written before sharding was
// removed may hold a submitted shards:3 spec.  Open still recovers, and
// that job ends failed with the sharding-removed message instead of
// running under a meaning it never had.
func TestRecoveryFailsShardedSpec(t *testing.T) {
	dir := t.TempDir()
	j, _, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := quickSpec()
	spec.Shards = 3
	if err := j.Append(journal.Record{Kind: journal.KindSubmitted, Job: "job-1", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	m, rec, err := Open(Config{Workers: 1, Clock: fixedClock(), StateDir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer drain(t, m)
	if rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want the submitted job requeued", rec)
	}
	res := await(t, m, "job-1")
	if res.State != experiments.StateFailed || !strings.Contains(res.Error, shardsRemoved) {
		t.Errorf("recovered sharded job = %s (%q), want failed with %q", res.State, res.Error, shardsRemoved)
	}
}

// TestFaultPartitionedCaches: a chaos job must not share memoized runs
// with healthy jobs — the fault spec partitions the cache.
func TestFaultPartitionedCaches(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	healthy := quickSpec()
	chaos := quickSpec()
	chaos.Fault = "sink:every=3,seed=7"

	if m.cacheFor(healthy.RunCacheKey()) == m.cacheFor(chaos.RunCacheKey()) {
		t.Fatal("healthy and chaos jobs share a run cache")
	}
	if m.cacheFor(healthy.RunCacheKey()) != m.cacheFor(quickSpec().RunCacheKey()) {
		t.Fatal("two healthy specs got different caches")
	}
	// Canonicalized fault specs land in one partition regardless of
	// parameter spelling.
	reordered := quickSpec()
	reordered.Fault = "sink:seed=7,every=3"
	if m.cacheFor(chaos.RunCacheKey()) != m.cacheFor(reordered.RunCacheKey()) {
		t.Error("equivalent fault specs partitioned separately")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestChaosJobDegradesGracefully: a job with an armed fault spec finishes
// as done with per-run error annotations, not as failed — the degraded
// contract of the batch tools carried into the service.
func TestChaosJobDegradesGracefully(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	spec := experiments.JobSpec{
		Exhibits:   []string{"table1", "table5"},
		Scale:      0.05,
		Iterations: 3,
		Fault:      "sink:every=3,seed=7",
	}
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != experiments.StateDone {
		t.Fatalf("chaos job state = %s (%s)", res.State, res.Error)
	}
	if len(res.RunErrors) == 0 {
		t.Error("chaos job reported no run errors")
	}
	if res.Report == "" {
		t.Error("chaos job served no report")
	}
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDrainTwiceErrors: a second Drain reports instead of deadlocking on
// the closed queue.
func TestDrainTwiceErrors(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain(ctx); err == nil {
		t.Fatal("second drain must error")
	}
	if _, err := m.Submit(quickSpec()); err != ErrDraining {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
}
