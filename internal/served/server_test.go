package served

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/runner"
)

// fixedClock pins the report's generated-timestamp line so served report
// bytes are fully deterministic.
func fixedClock() func() time.Time {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time { return at }
}

// stripTimestamp drops the generated-at line, the one part of a report
// that varies run to run — the same normalization the nvreport golden
// test applies.
func stripTimestamp(text string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "generated ") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// postJob submits a spec and returns the decoded result and status code.
func postJob(t *testing.T, ts *httptest.Server, spec string) (experiments.JobResult, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.JobResult
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("decoding submit response %q: %v", body, err)
		}
	}
	return res, resp.StatusCode
}

// get fetches a path and returns status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// await blocks until the job with the given ID is terminal.
func await(t *testing.T, m *Manager, id string) experiments.JobResult {
	t.Helper()
	job, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job %s did not finish: %v", id, err)
	}
	return res
}

// TestServedReportMatchesCLIGolden is the cross-frontend determinism
// acceptance test: the report served over HTTP must match the pinned CLI
// golden byte for byte (modulo the stripped timestamp line), and a jobs=4
// submission must serve the exact same bytes as jobs=1 — the jobs-1-vs-N
// contract extended through the HTTP layer.
func TestServedReportMatchesCLIGolden(t *testing.T) {
	m := NewManager(Config{Clock: fixedClock()})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	res1, code := postJob(t, ts, `{"scale":0.05,"iterations":3,"jobs":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if res1.SchemaVersion != experiments.SchemaVersion || res1.ID == "" {
		t.Fatalf("submit response = %+v", res1)
	}
	final := await(t, m, res1.ID)
	if final.State != experiments.StateDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}

	code, body1 := get(t, ts, "/jobs/"+res1.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("report status = %d: %s", code, body1)
	}
	golden, err := os.ReadFile("../../cmd/nvreport/testdata/golden_report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripTimestamp(string(body1)), stripTimestamp(string(golden)); got != want {
		t.Errorf("served report differs from CLI golden (served %d bytes, golden %d bytes)",
			len(got), len(want))
	}

	// Same experiment at jobs=4: byte-identical including the timestamp
	// line (fixed clock), served entirely from the shared run cache.
	res2, code := postJob(t, ts, `{"scale":0.05,"iterations":3,"jobs":4}`)
	if code != http.StatusAccepted {
		t.Fatalf("second submit status = %d", code)
	}
	if got := await(t, m, res2.ID); got.State != experiments.StateDone {
		t.Fatalf("second job state = %s (%s)", got.State, got.Error)
	}
	code, body2 := get(t, ts, "/jobs/"+res2.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("second report status = %d", code)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("jobs=1 and jobs=4 served reports differ")
	}

	// The second job's runs must all have come from the shared cache.
	snap := m.Registry().Snapshot()
	misses, _ := snap.Counter("runner_misses_total")
	hits, _ := snap.Counter("runner_hits_total")
	if hits == 0 {
		t.Error("second job produced no cache hits")
	}
	if misses == 0 {
		t.Error("no cache misses recorded at all")
	}
	if runs, _ := snap.Counter("runner_runs_total"); runs != misses {
		t.Errorf("runs = %d but misses = %d: some run executed twice", runs, misses)
	}
}

// TestSubmitValidation: malformed and invalid specs are rejected with 400
// before any work is queued.
func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := m.Drain(ctx); err != nil {
			t.Error(err)
		}
	})

	for _, spec := range []string{
		`{not json`,
		`{"scale":-1}`,
		`{"apps":["nosuchapp"]}`,
		`{"exhibits":["fig99"]}`,
		`{"mode":"turbo"}`,
		`{"fault":"sink:bogus=1"}`,
		`{"schema_version":99}`,
		`{"unknown_field":1}`,
	} {
		if _, code := postJob(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %s: status = %d, want 400", spec, code)
		}
	}
	if len(m.Jobs()) != 0 {
		t.Errorf("rejected specs left %d jobs behind", len(m.Jobs()))
	}
}

// TestSubmitBodyTooLarge: a spec body over the 1 MiB intake bound is
// answered 413 and registers no job.
func TestSubmitBodyTooLarge(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	defer drain(t, m)

	huge := `{"apps":["` + strings.Repeat("a", maxSpecBytes) + `"]}`
	if _, code := postJob(t, ts, huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: status = %d, want 413", code)
	}
	if len(m.Jobs()) != 0 {
		t.Errorf("oversized spec left %d jobs behind", len(m.Jobs()))
	}
}

// TestQueueBackpressure: with one worker held and a one-slot queue, the
// next submission must be rejected with 429 and must not register a job.
func TestQueueBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, Queue: 1, Metrics: reg})
	m.beforeRun = func(j *Job) {
		select {
		case <-gate:
		case <-j.ctx.Done():
		}
	}
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	quick := `{"exhibits":["table1"],"scale":0.05,"iterations":2}`
	a, code := postJob(t, ts, quick)
	if code != http.StatusAccepted {
		t.Fatalf("job A status = %d", code)
	}
	jobA, err := m.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return jobA.State() == experiments.StateRunning })

	b, code := postJob(t, ts, quick)
	if code != http.StatusAccepted {
		t.Fatalf("job B status = %d", code)
	}
	if _, code := postJob(t, ts, quick); code != http.StatusTooManyRequests {
		t.Fatalf("job C status = %d, want 429", code)
	}

	close(gate)
	for _, id := range []string{a.ID, b.ID} {
		if res := await(t, m, id); res.State != experiments.StateDone {
			t.Errorf("job %s state = %s (%s)", id, res.State, res.Error)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("served_jobs_rejected_total"); v != 1 {
		t.Errorf("served_jobs_rejected_total = %d, want 1", v)
	}
	if v, _ := snap.Counter("served_jobs_submitted_total"); v != 2 {
		t.Errorf("served_jobs_submitted_total = %d, want 2", v)
	}
	if len(m.Jobs()) != 2 {
		t.Errorf("job list length = %d, want 2", len(m.Jobs()))
	}
}

// TestCancel covers both cancellation paths over HTTP: a queued job turns
// terminal immediately; a running job is cancelled at its next context
// check and finishes as cancelled.
func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	m := NewManager(Config{Workers: 1, Queue: 4})
	m.beforeRun = func(j *Job) {
		select {
		case <-gate:
		case <-j.ctx.Done():
		}
	}
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	quick := `{"exhibits":["table1"],"scale":0.05,"iterations":2}`
	a, _ := postJob(t, ts, quick)
	jobA, err := m.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return jobA.State() == experiments.StateRunning })
	b, _ := postJob(t, ts, quick)

	// Cancel the queued job: terminal at once, report gone.
	resp, err := http.Post(ts.URL+"/jobs/"+b.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued status = %d", resp.StatusCode)
	}
	if res := await(t, m, b.ID); res.State != experiments.StateCancelled {
		t.Errorf("queued job after cancel = %s", res.State)
	}
	if code, _ := get(t, ts, "/jobs/"+b.ID+"/report"); code != http.StatusGone {
		t.Errorf("cancelled job report status = %d, want 410", code)
	}

	// Cancel the running job mid-run, then release the worker.
	resp, err = http.Post(ts.URL+"/jobs/"+a.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if res := await(t, m, a.ID); res.State != experiments.StateCancelled {
		t.Errorf("running job after cancel = %s (%s)", res.State, res.Error)
	}

	// Cancelling an unknown job 404s.
	resp, err = http.Post(ts.URL+"/jobs/job-999/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown status = %d, want 404", resp.StatusCode)
	}
}

// TestEventsStream reads the NDJSON progress stream end to end: every
// line is a well-formed runner.EventRecord, sequence numbers increase
// strictly, timestamps come from the injected clock, and the stream
// terminates once the job is done.
func TestEventsStream(t *testing.T) {
	m := NewManager(Config{Clock: fixedClock()})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	res, code := postJob(t, ts, `{"exhibits":["table5"],"scale":0.05,"iterations":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + res.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}

	var events []runner.EventRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev runner.EventRecord
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	kinds := map[string]int{}
	lastSeq := uint64(0)
	for i, ev := range events {
		kinds[ev.Kind]++
		if ev.Seq <= lastSeq {
			t.Errorf("event %d: seq %d not increasing (prev %d)", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if !ev.Time.Equal(fixedClock()()) {
			t.Errorf("event %d: time %v not from the injected clock", i, ev.Time)
		}
	}
	if kinds["start"] == 0 || kinds["done"] == 0 {
		t.Errorf("stream missing start/done events: %v", kinds)
	}
	if res := await(t, m, res.ID); res.State != experiments.StateDone {
		t.Fatalf("job state = %s", res.State)
	}

	// Resuming from an offset skips the already-seen prefix.
	code, body := get(t, ts, "/jobs/"+res.ID+"/events?after="+fmt.Sprint(len(events)-1))
	if code != http.StatusOK {
		t.Fatalf("resumed events status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Errorf("resume after %d returned %d lines, want 1", len(events)-1, len(lines))
	}
	if code, _ := get(t, ts, "/jobs/"+res.ID+"/events?after=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad after value status = %d, want 400", code)
	}
}

// TestDrainGraceful: drain with a generous deadline lets queued and
// running jobs finish, flushes their states, and permanently stops intake
// with 503.
func TestDrainGraceful(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewManager(Config{Workers: 1, Metrics: reg})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	quick := `{"exhibits":["table1"],"scale":0.05,"iterations":2}`
	a, _ := postJob(t, ts, quick)
	b, _ := postJob(t, ts, quick)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		job, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State() != experiments.StateDone {
			t.Errorf("job %s after drain = %s", id, job.State())
		}
	}
	if _, code := postJob(t, ts, quick); code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain status = %d, want 503", code)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("served_jobs_finished_total"); v != 2 {
		t.Errorf("served_jobs_finished_total = %d, want 2", v)
	}
	if v, _ := snap.Gauge("served_queue_depth"); v != 0 {
		t.Errorf("served_queue_depth after drain = %v, want 0", v)
	}
}

// TestDrainDeadline: a drain whose deadline expires cancels the jobs
// still in flight instead of hanging.
func TestDrainDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	m := NewManager(Config{Workers: 1})
	m.beforeRun = func(j *Job) {
		select {
		case <-gate:
		case <-j.ctx.Done():
		}
	}
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	quick := `{"exhibits":["table1"],"scale":0.05,"iterations":2}`
	a, _ := postJob(t, ts, quick)
	jobA, err := m.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return jobA.State() == experiments.StateRunning })
	b, _ := postJob(t, ts, quick)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err == nil {
		t.Fatal("deadline-forced drain must report the context error")
	}
	for _, id := range []string{a.ID, b.ID} {
		job, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if job.State() != experiments.StateCancelled {
			t.Errorf("job %s after forced drain = %s", id, job.State())
		}
	}
}

// TestMetricsEndpoint: /metrics serves the shared registry in both
// renderings, including the served_* series and the runner counters the
// job sessions published into it.
func TestMetricsEndpoint(t *testing.T) {
	m := NewManager(Config{})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	res, _ := postJob(t, ts, `{"exhibits":["table1"],"scale":0.05,"iterations":2}`)
	if got := await(t, m, res.ID); got.State != experiments.StateDone {
		t.Fatalf("job state = %s", got.State)
	}

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"served_jobs_submitted_total",
		"served_jobs_finished_total",
		"served_requests_total",
		"runner_runs_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %s", want)
		}
	}

	code, body = get(t, ts, "/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics json status = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics json did not parse: %v", err)
	}

	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d %q", code, body)
	}
	var health struct {
		Status    string           `json:"status"`
		Recovered bool             `json:"recovered"`
		Recovery  *json.RawMessage `json:"recovery"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("healthz did not parse: %v (%q)", err, body)
	}
	if health.Status != "ok" || health.Recovered || health.Recovery != nil {
		t.Errorf("healthz = %+v, want status ok and no recovery for an in-memory manager", health)
	}
}

// TestChaosResponseWriter: a writer-target fault spec on the manager
// attacks the serving path itself — the response write fails and the
// failure is counted, not swallowed.
func TestChaosResponseWriter(t *testing.T) {
	spec, err := faults.Parse("writer:every=1,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m := NewManager(Config{Metrics: reg, Fault: spec})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	if code, _ := get(t, ts, "/metrics"); code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	if v, _ := reg.Snapshot().Counter("served_response_errors_total"); v == 0 {
		t.Error("injected writer fault was not counted")
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
