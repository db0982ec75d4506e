package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/runner"
	"nvscavenger/internal/served"
)

// servedWorkload runs the nvserved daemon in process.  One unit is a rep:
// a fresh served.Open with its journal in a temporary state directory,
// the HTTP server on httptest, and closed-loop clients that each submit a
// job (POST /jobs), read its event stream to the end and fetch its report.
// The cold phase submits one full report per ColdIterations entry: the
// run keys differ, so every run computes.  The warm phase submits WarmJobs
// jobs cycling through servedSpecs in an order the seed shuffles, all
// served from the shared run cache, so it loads HTTP, the journal (three fsync commits per job), the
// runner's cache-hit path and exhibit rendering instead of memtrace and
// cachesim.  The rep ends with Drain.  It reads Scale, ColdIterations and
// WarmJobs.
type servedWorkload struct {
	seed int64
	pins *pins
	errw io.Writer
}

// servedGroups is how many exhibit groups, besides the full report, each
// cold run key contributes to the warm phase's spec set.
const servedGroups = 5

// servedSpecs returns the specs a rep draws from: for each cold iteration
// count, the full report followed by the exhibit registry cut into
// servedGroups contiguous groups.
func servedSpecs(p params) []experiments.JobSpec {
	names := experiments.ExhibitNames()
	groups := [][]string{nil}
	for i := 0; i < servedGroups; i++ {
		groups = append(groups, names[i*len(names)/servedGroups:(i+1)*len(names)/servedGroups])
	}
	var specs []experiments.JobSpec
	for _, it := range p.ColdIterations {
		for _, g := range groups {
			specs = append(specs, experiments.JobSpec{Scale: p.Scale, Iterations: it, Exhibits: g})
		}
	}
	return specs
}

// clients is the number of closed-loop clients and connections: one per
// core, at most two.
func clients() int { return min(2, runtime.NumCPU()) }

func (w *servedWorkload) unit(p params, check bool, sp *spans) unitResult {
	var u unitResult
	trace := sp.newTrace()
	root := sp.begin("served.rep", 0, trace)
	start := time.Now()
	specs := servedSpecs(p)
	cold := make([]int, len(p.ColdIterations))
	for i := range cold {
		cold[i] = i * (servedGroups + 1) // each run key's full report
	}
	// Every seed submits the same mix, each spec in turn, in its own order:
	// full reports take several times longer than exhibit groups, so a
	// seeded draw of the mix would move the median with the seed.
	warm := make([]int, p.WarmJobs)
	for i := range warm {
		warm[i] = i % len(specs)
	}
	rand.New(rand.NewSource(w.seed)).Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	u.attempted = len(cold) + len(warm)
	abort := func(err error) unitResult {
		u.fail(w.errw, "served: %v", err)
		u.failed = u.attempted
		return u
	}

	dir, err := os.MkdirTemp("", "nvbench-served-")
	if err != nil {
		return abort(err)
	}
	m, _, err := served.Open(served.Config{StateDir: dir})
	if err != nil {
		return abort(errors.Join(err, os.RemoveAll(dir)))
	}
	srv := httptest.NewServer(served.NewServer(m))
	transport := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}
	c := &client{http: &http.Client{Transport: transport, Timeout: time.Minute}, base: srv.URL, sp: sp, trace: trace}

	coldStart := time.Now()
	coldOut := c.runJobs(specs, cold, root)
	u.refsWall = time.Since(coldStart)
	warmOut := c.runJobs(specs, warm, root)
	commits, _ := m.Registry().Snapshot().Counter("served_journal_commits_total")

	srv.Close()
	transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		u.fail(w.errw, "served: drain: %v", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		u.fail(w.errw, "served: %v", err)
	}
	u.wall = time.Since(start)
	sp.end(root)

	var started, cached int
	var busy time.Duration
	all, allIdx := append(coldOut, warmOut...), append(cold, warm...)
	for i, o := range all {
		idx := allIdx[i]
		started += o.started
		cached += o.cached
		busy += o.busy
		switch {
		case o.err != nil:
			u.fail(w.errw, "served job %+v: %v", specs[idx], o.err)
		case check && o.digest != w.pins.Served.Specs[idx].SHA256:
			u.fail(w.errw, "served job %+v: report digest %s, pinned %s", specs[idx], o.digest, w.pins.Served.Specs[idx].SHA256)
		}
	}
	for _, o := range coldOut {
		u.refs += o.refs
	}
	for _, o := range warmOut {
		u.requests = append(u.requests, o.latency)
		if sp != nil {
			u.addLayer("served.submit_ms.p50", millis(o.submit))
			u.addLayer("served.wait_ms.p50", millis(o.wait))
			u.addLayer("served.report_get_ms.p50", millis(o.get))
		}
	}
	if sp != nil {
		addRunnerLayer(&u, started, cached, busy, u.wall)
		u.addLayer("journal.commits_per_job", float64(commits)/float64(u.attempted))
	}
	return u
}

// client is the served workload's HTTP client.
type client struct {
	http  *http.Client
	base  string
	sp    *spans
	trace int64
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	latency, submit, wait, get time.Duration
	// digest is the report's SHA-256 with the generated line stripped.
	digest string
	// refs, started, cached and busy come from the job's event stream.
	refs            uint64
	started, cached int
	busy            time.Duration
	err             error
}

// runJobs submits specs[idx[i]] for every i from clients() closed-loop
// goroutines and returns the outcomes in idx order.
func (c *client) runJobs(specs []experiments.JobSpec, idx []int, parent int64) []jobOutcome {
	out := make([]jobOutcome, len(idx))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(idx); i = int(next.Add(1) - 1) {
				out[i] = c.job(specs[idx[i]], parent)
			}
		}()
	}
	wg.Wait()
	return out
}

// job runs one job from submission to report bytes.
func (c *client) job(spec experiments.JobSpec, parent int64) jobOutcome {
	var o jobOutcome
	id := c.sp.begin("served.job", parent, c.trace)
	defer c.sp.end(id)
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}

	start := time.Now()
	sub := c.sp.begin("served.submit", id, c.trace)
	var res experiments.JobResult
	err = c.call(http.MethodPost, "/jobs", bytes.NewReader(body), http.StatusAccepted, func(r io.Reader) error {
		var err error
		res, err = experiments.DecodeJobResult(r)
		return err
	})
	c.sp.end(sub)
	o.submit = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}

	t := time.Now()
	wait := c.sp.begin("served.wait", id, c.trace)
	probe := newRunnerProbe(c.sp, c.trace, func() int64 { return wait })
	err = c.call(http.MethodGet, "/jobs/"+res.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		lines := bufio.NewScanner(r)
		for lines.Scan() {
			var rec runner.EventRecord
			if err := json.Unmarshal(lines.Bytes(), &rec); err != nil {
				return fmt.Errorf("decoding event: %w", err)
			}
			probe.record(rec)
		}
		return lines.Err()
	})
	c.sp.end(wait)
	o.wait = time.Since(t)
	if err != nil {
		o.err = err
		return o
	}

	t = time.Now()
	get := c.sp.begin("served.report_get", id, c.trace)
	var report []byte
	err = c.call(http.MethodGet, "/jobs/"+res.ID+"/report", nil, http.StatusOK, func(r io.Reader) error {
		var err error
		report, err = io.ReadAll(r)
		return err
	})
	c.sp.end(get)
	o.get = time.Since(t)
	o.latency = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	o.digest = digest(stripGenerated(report))
	o.refs, o.started, o.cached, o.busy = probe.totals()
	return o
}

// call sends one request and hands the body of a response with the wanted
// status to read; any other status is an error carrying the body.
func (c *client) call(method, path string, body io.Reader, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		msg, rerr := io.ReadAll(resp.Body)
		return errors.Join(fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg)), rerr, resp.Body.Close())
	}
	return errors.Join(read(resp.Body), resp.Body.Close())
}

// stripGenerated removes the report's "generated <timestamp>" line, the
// only line a served report may add to the CLI's bytes.
func stripGenerated(report []byte) []byte {
	header, rest, ok := bytes.Cut(report, []byte("\n"))
	if !ok || !bytes.HasPrefix(rest, []byte("generated ")) {
		return report
	}
	_, rest, _ = bytes.Cut(rest, []byte("\n"))
	out := make([]byte, 0, len(header)+1+len(rest))
	out = append(append(out, header...), '\n')
	return append(out, rest...)
}
