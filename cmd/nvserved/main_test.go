package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/served"
)

// TestServeEndToEnd drives the daemon the way a client would: submit a
// sweep job over HTTP, stream its progress events, fetch the finished
// report, then shut down via context cancellation (the signal path) and
// check the drain summary and flushed metrics.
func TestServeEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := served.NewManager(served.Config{Workers: 1})
	ctx, stop := context.WithCancel(context.Background())
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.txt")

	var out bytes.Buffer
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, ln, m, time.Minute, metricsPath, &out) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"exhibits":["table1","table5"],"scale":0.05,"iterations":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || res.State != experiments.StateQueued {
		t.Fatalf("submit: status %d, state %q", resp.StatusCode, res.State)
	}

	// Stream progress until the job completes: the stream must carry at
	// least one start and one done event.
	resp, err = http.Get(base + "/jobs/" + res.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	starts, dones := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Kind {
		case "start":
			starts++
		case "done":
			dones++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if starts == 0 || dones == 0 {
		t.Fatalf("event stream: %d starts, %d dones", starts, dones)
	}

	resp, err = http.Get(base + "/jobs/" + res.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d: %s", resp.StatusCode, report)
	}
	text := string(report)
	if !strings.Contains(text, "Table I") || !strings.Contains(text, "Table V") {
		t.Errorf("served report incomplete:\n%s", text)
	}

	// Signal-path shutdown: drain and exit clean.
	stop()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("serve did not shut down")
	}
	log := out.String()
	if !strings.Contains(log, "listening on") || !strings.Contains(log, "drained: 1 jobs (1 done, 0 failed, 0 cancelled)") {
		t.Errorf("daemon log unexpected:\n%s", log)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics not flushed on shutdown: %v", err)
	}
	for _, want := range []string{"served_jobs_submitted_total", "runner_runs_total"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("flushed metrics missing %s", want)
		}
	}
}

// TestStateDirRestartRecovery drives the daemon's durability path end to
// end: serve with -state-dir semantics (served.Open), run a job, drain,
// then start a second daemon over the same state dir and require the job
// back — same report bytes over HTTP — plus the recovery summary in the
// log and the replay summary on /healthz.
func TestStateDirRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	spec := `{"exhibits":["table1"],"scale":0.05,"iterations":2}`

	// First daemon: submit one job, wait for its report, drain.
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := served.Open(served.Config{Workers: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, stop1 := context.WithCancel(context.Background())
	var out1 bytes.Buffer
	done1 := make(chan error, 1)
	go func() { done1 <- serve(ctx1, ln1, m1, time.Minute, "", &out1) }()

	base1 := "http://" + ln1.Addr().String()
	resp, err := http.Post(base1+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var res experiments.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	job, err := m1.Get(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer wcancel()
	if _, err := job.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base1 + "/jobs/" + res.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d: %s", resp.StatusCode, want)
	}
	stop1()
	if err := <-done1; err != nil {
		t.Fatalf("first serve returned %v", err)
	}
	if !strings.Contains(out1.String(), "journal: 0 records replayed") {
		t.Errorf("first daemon log missing fresh-journal summary:\n%s", out1.String())
	}

	// Second daemon over the same state dir: the job must come back with
	// identical report bytes, and the log must say so.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m2, rec, err := served.Open(served.Config{Workers: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Restored != 1 || !rec.CleanShutdown {
		t.Fatalf("recovery = %+v, want 1 restored from a clean shutdown", rec)
	}
	ctx2, stop2 := context.WithCancel(context.Background())
	var out2 bytes.Buffer
	done2 := make(chan error, 1)
	go func() { done2 <- serve(ctx2, ln2, m2, time.Minute, "", &out2) }()

	base2 := "http://" + ln2.Addr().String()
	resp, err = http.Get(base2 + "/jobs/" + res.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored report status = %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restored report diverged: got %d bytes, want %d", len(got), len(want))
	}

	resp, err = http.Get(base2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string           `json:"status"`
		Recovery *served.Recovery `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Recovery == nil || health.Recovery.Restored != 1 {
		t.Errorf("healthz after restart = %+v, want the replay summary", health)
	}

	stop2()
	if err := <-done2; err != nil {
		t.Fatalf("second serve returned %v", err)
	}
	if !strings.Contains(out2.String(), "1 jobs restored") {
		t.Errorf("second daemon log missing recovery summary:\n%s", out2.String())
	}
}

// TestRunFlagValidation: bad flags and fault specs fail before listening.
func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fault", "writer:bogus=1", "-addr", "127.0.0.1:0"}, &out); err == nil {
		t.Error("malformed -fault spec must error")
	}
	for _, flag := range []string{"-nonsense", "-breaker-threshold"} {
		err := run([]string{flag, "1"}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

// TestReadHeaderTimeout: the daemon's server bounds header reads, and a
// client that sends a partial request and stalls is disconnected once the
// bound passes instead of pinning a connection.  The behaviour check runs
// the same server with the bound shortened so the test stays fast.
func TestReadHeaderTimeout(t *testing.T) {
	m := served.NewManager(served.Config{Workers: 1})
	defer func() {
		if err := m.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	srv := newHTTPServer(m)
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /jobs HTTP/1.1\r\nHost: nvserved\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept a stalled header read open past its ReadHeaderTimeout")
	}
}
