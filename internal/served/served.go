// Package served turns the batch experiment workflow into a service: a
// job manager that accepts versioned experiment specs
// (experiments.JobSpec), queues them with backpressure, runs each on its
// own experiment session over a shared single-flight run cache, streams
// per-run progress events, and retains the finished results
// (experiments.JobResult) for retrieval.  Server (server.go) is the
// HTTP/JSON frontend over the manager; cmd/nvserved is the daemon.
//
// The design keeps the determinism contract of the batch tools: a job's
// report is rendered by the same exhibit registry and generator the
// nvreport CLI uses (experiments.Exhibits, Session.WriteReport), so a
// served report is byte-identical to the CLI's for the same spec — the
// only divergence is the optional generated-timestamp line, stamped from
// the manager's injectable clock.
//
// Lifecycle: Submit validates the spec and enqueues a *Job in state
// "queued"; a worker moves it to "running" and then exactly one of
// "done", "failed" or "cancelled".  The queue is bounded — a full queue
// rejects with ErrQueueFull (HTTP 429) instead of holding clients — and
// Drain stops intake, lets in-flight jobs finish until the deadline, then
// cancels the stragglers.
package served

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/journal"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/runner"
)

// Submission and lifecycle errors.  The HTTP layer maps them onto status
// codes (ErrQueueFull → 429, ErrDraining → 503,
// ErrNotFound → 404).
var (
	// ErrQueueFull rejects a submission when the bounded queue is full.
	ErrQueueFull = errors.New("served: job queue full")
	// ErrDraining rejects a submission once Drain has begun.
	ErrDraining = errors.New("served: draining, not accepting jobs")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("served: no such job")
)

// Config configures a Manager.
type Config struct {
	// Queue bounds the number of jobs waiting to run; a full queue
	// rejects submissions with ErrQueueFull.  Default 16.
	Queue int
	// Workers bounds the number of concurrently running jobs.  Default 2:
	// each job already fans its runs out across the session worker pool,
	// so a small job-level bound keeps the machine subscribed without
	// oversubscribing it.
	Workers int
	// Jobs bounds each job session's run worker pool (0 = GOMAXPROCS).
	// A job spec's own jobs field, when set, takes precedence.
	Jobs int
	// Clock is the manager's wall clock: job wall metrics and the report
	// generated-timestamp line read it.  Nil selects time.Now; tests
	// inject a fixed clock for byte-identical reports.
	Clock func() time.Time
	// Metrics is the registry the manager, its sessions and their engines
	// publish into — the /metrics endpoint serves its snapshot.  Nil gets
	// a private registry.
	Metrics *obs.Registry
	// Fault optionally arms writer-target fault injection on the HTTP
	// response bodies (the serving-path chaos hook); other targets are
	// carried per job via the spec's fault field instead.
	Fault faults.Spec
	// StateDir, when set and the manager is constructed with Open, arms
	// the crash-safe write-ahead journal: every job lifecycle transition
	// is logged to StateDir/journal.wal before it is acknowledged, and
	// Open replays the log on startup.  Empty means no durability.
	StateDir string

	// journalWrap and journalCrash are the crash-harness hooks (tests):
	// they thread straight into journal.Options as the disk-fault writer
	// decorator and the crash-point injector.
	journalWrap  func(io.Writer) io.Writer
	journalCrash func() bool
}

// Recovery summarizes what Open replayed from the journal: the healthz
// payload operators read to see that a crash happened and what came back.
type Recovery struct {
	// Records is how many committed journal records were replayed.
	Records int `json:"records"`
	// Restored counts terminal jobs that came back with their results.
	Restored int `json:"restored"`
	// Requeued counts non-terminal jobs re-enqueued in submission order.
	Requeued int `json:"requeued"`
	// Rerun is the subset of Requeued that were mid-run at the crash;
	// deterministic re-execution makes rerunning them byte-identical.
	Rerun int `json:"rerun"`
	// TruncatedBytes is the torn tail dropped by the journal on open.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// CleanShutdown reports the previous process drained gracefully.
	CleanShutdown bool `json:"clean_shutdown"`
	// Recovered means the journal held state from a process that did NOT
	// shut down cleanly — the restart recovered from a crash.
	Recovered bool `json:"recovered"`
}

// Manager owns the job queue, the worker pool and the finished-job store.
// All methods are safe for concurrent use.
type Manager struct {
	cfg Config
	now func() time.Time
	reg *obs.Registry

	submitted *obs.Counter
	rejected  *obs.Counter
	finished  *obs.Counter
	depth     *obs.Gauge
	running   *obs.Gauge
	wall      *obs.Histogram

	// jmu serializes journal access and orders it against intake: Submit
	// and Drain hold it across their state flips, so the journal's record
	// order always matches the queue's.  Lock hierarchy: jmu → mu →
	// Job.mu; never the reverse.
	//
	//nvlint:lockorder jmu > mu
	jmu           sync.Mutex
	journal       *journal.Journal
	journalErrors *obs.Counter
	recovery      Recovery
	hasRecovery   bool

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	queue    chan *Job
	draining bool
	caches   map[string]*runner.Cache

	workers sync.WaitGroup

	// beforeRun, when set (tests), runs after a job enters the running
	// state and before its session executes — the hook backpressure and
	// cancellation tests use to hold a worker at a known point.
	beforeRun func(*Job)
}

// NewManager starts an in-memory manager and its worker pool; jobs do
// not survive a restart.  Use Open with Config.StateDir for durability.
func NewManager(cfg Config) *Manager {
	m := newManager(cfg)
	m.queue = make(chan *Job, m.cfg.Queue)
	m.startWorkers()
	return m
}

// Open starts a crash-safe manager: it opens (creating if needed) the
// write-ahead journal under cfg.StateDir, replays it — terminal jobs
// restore with their results, queued jobs requeue in original submission
// order, jobs caught mid-run are re-enqueued for deterministic re-runs —
// and only then starts the worker pool.  The returned Recovery is also
// retained for /healthz.  An empty StateDir degrades to NewManager.
func Open(cfg Config) (*Manager, Recovery, error) {
	if cfg.StateDir == "" {
		return NewManager(cfg), Recovery{}, nil
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("served: creating state dir: %w", err)
	}
	j, rep, err := journal.Open(filepath.Join(cfg.StateDir, "journal.wal"), journal.Options{
		Metrics: cfg.Metrics,
		Wrap:    cfg.journalWrap,
		Crash:   cfg.journalCrash,
	})
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("served: opening journal: %w", err)
	}
	m := newManager(cfg)
	m.journal = j
	rec := m.restore(rep)
	m.recovery = rec
	m.hasRecovery = true
	m.startWorkers()
	return m, rec, nil
}

// newManager builds the manager core: config defaults, registry and
// counters, but no queue and no workers — NewManager and Open finish the
// job (Open must restore journaled jobs into the queue first).
func newManager(cfg Config) *Manager {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		cfg:           cfg,
		now:           time.Now,
		reg:           reg,
		submitted:     reg.Counter("served_jobs_submitted_total"),
		rejected:      reg.Counter("served_jobs_rejected_total"),
		finished:      reg.Counter("served_jobs_finished_total"),
		journalErrors: reg.Counter("served_journal_append_errors_total"),
		depth:         reg.Gauge("served_queue_depth"),
		running:       reg.Gauge("served_jobs_running"),
		wall:          reg.Histogram("served_job_wall_seconds", obs.SecondsBuckets),
		jobs:          map[string]*Job{},
		caches:        map[string]*runner.Cache{},
	}
	if cfg.Clock != nil {
		m.now = cfg.Clock
	}
	return m
}

func (m *Manager) startWorkers() {
	for i := 0; i < m.cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
}

// replayedJob is one job's folded journal history: the last state wins,
// terminal records carry the stored result.
type replayedJob struct {
	spec   experiments.JobSpec
	state  string
	result *experiments.JobResult
}

// restore folds the replayed journal into live manager state.  Workers
// are not running yet, so no locks are needed.
func (m *Manager) restore(rep journal.Replay) Recovery {
	byID := map[string]*replayedJob{}
	var order []string
	for _, rec := range rep.Records {
		switch rec.Kind {
		case journal.KindSubmitted:
			if rec.Job == "" || rec.Spec == nil || byID[rec.Job] != nil {
				continue // malformed or duplicate; replay is best-effort
			}
			byID[rec.Job] = &replayedJob{spec: *rec.Spec, state: experiments.StateQueued}
			order = append(order, rec.Job)
		case journal.KindStarted:
			if rj := byID[rec.Job]; rj != nil && !terminal(rj.state) {
				rj.state = experiments.StateRunning
			}
		case experiments.StateDone, experiments.StateFailed, experiments.StateCancelled:
			if rj := byID[rec.Job]; rj != nil {
				rj.state = rec.Kind
				rj.result = rec.Result
			}
		}
	}

	pending := 0
	for _, rj := range byID {
		if !terminal(rj.state) {
			pending++
		}
	}
	// The queue must hold every requeued job even if the configured bound
	// shrank across the restart: recovery never drops an acknowledged job.
	queueCap := m.cfg.Queue
	if pending > queueCap {
		queueCap = pending
	}
	m.queue = make(chan *Job, queueCap)

	rec := Recovery{
		Records:        len(rep.Records),
		TruncatedBytes: rep.Truncated,
		CleanShutdown:  rep.CleanShutdown,
		Recovered:      len(rep.Records) > 0 && !rep.CleanShutdown,
	}
	for _, id := range order {
		rj := byID[id]
		ctx, cancel := context.WithCancel(context.Background())
		job := &Job{id: id, spec: rj.spec, ctx: ctx, cancel: cancel}
		job.cond = sync.NewCond(&job.mu)
		if terminal(rj.state) {
			res := experiments.NewJobResult(rj.spec, rj.state)
			res.ID = id
			if rj.result != nil {
				res = *rj.result
			}
			job.state = rj.state
			job.result = res
			cancel()
			rec.Restored++
		} else {
			job.state = experiments.StateQueued
			m.queue <- job
			rec.Requeued++
			if rj.state == experiments.StateRunning {
				rec.Rerun++
			}
		}
		m.jobs[id] = job
		m.order = append(m.order, id)
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil && n > m.nextID {
			m.nextID = n
		}
	}
	m.depth.Set(float64(len(m.queue)))
	return rec
}

// RecoveryInfo returns what Open replayed; ok is false for a manager
// built with NewManager (no journal).
func (m *Manager) RecoveryInfo() (Recovery, bool) {
	return m.recovery, m.hasRecovery
}

// jlog appends lifecycle records to the journal, if one is armed.
// Transition logging after submission is best-effort: a failed append is
// counted (served_journal_append_errors_total) but does not kill the job
// — recovery re-runs anything whose terminal record is missing, and
// deterministic re-execution makes that safe.
func (m *Manager) jlog(recs ...journal.Record) {
	if m.journal == nil {
		return
	}
	m.jmu.Lock()
	defer m.jmu.Unlock()
	if err := m.journal.Append(recs...); err != nil {
		m.journalErrors.Inc()
	}
}

// Compaction policy: rewrite the log once it holds a meaningful number
// of records and most of them are superseded by later transitions.
const (
	compactMinRecords = 64
	compactFactor     = 4
)

// maybeCompact rotates the journal down to the live record set when the
// log has grown well past it.
func (m *Manager) maybeCompact() {
	if m.journal == nil {
		return
	}
	m.jmu.Lock()
	defer m.jmu.Unlock()
	records, _ := m.journal.Stats()
	if records < compactMinRecords {
		return
	}
	live := m.snapshotRecords()
	if records <= compactFactor*len(live) {
		return
	}
	if err := m.journal.Compact(live); err != nil {
		m.journalErrors.Inc()
	}
}

// snapshotRecords renders the manager's current state as the minimal
// record sequence that replays to it: submitted for every job, plus
// started for running jobs and the terminal record for finished ones.
// Callers hold jmu; mu and Job.mu are taken below it per the hierarchy.
func (m *Manager) snapshotRecords() []journal.Record {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	recs := make([]journal.Record, 0, 2*len(jobs))
	for _, job := range jobs {
		spec := job.spec
		recs = append(recs, journal.Record{Kind: journal.KindSubmitted, Job: job.id, Spec: &spec})
		job.mu.Lock()
		state := job.state
		res := job.result
		job.mu.Unlock()
		switch {
		case terminal(state):
			recs = append(recs, journal.Record{Kind: state, Job: job.id, Result: &res})
		case state == experiments.StateRunning:
			recs = append(recs, journal.Record{Kind: journal.KindStarted, Job: job.id})
		}
	}
	return recs
}

// Registry returns the registry the manager publishes into.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Submit validates spec and enqueues a job for it.  It returns the queued
// job, or ErrDraining / ErrQueueFull / a validation error.
// With a journal armed, the submission is acknowledged only after its
// record is durable: a crash after Submit returns can never lose the job.
func (m *Manager) Submit(spec experiments.JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// jmu is held across the whole admission so the journal's submitted
	// order matches the queue's, and so draining cannot flip (Drain takes
	// jmu) between the capacity check and the enqueue.
	m.jmu.Lock()
	defer m.jmu.Unlock()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.rejected.Inc()
		return nil, ErrDraining
	}
	if len(m.queue) == cap(m.queue) {
		m.mu.Unlock()
		m.rejected.Inc()
		return nil, ErrQueueFull
	}
	m.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		id:     fmt.Sprintf("job-%d", m.nextID),
		spec:   spec.Normalized(),
		state:  experiments.StateQueued,
		ctx:    ctx,
		cancel: cancel,
	}
	job.cond = sync.NewCond(&job.mu)
	m.mu.Unlock()

	if m.journal != nil {
		// Durable-ack: the write-ahead record commits (one fsync) before
		// the job exists anywhere the client can observe it.
		jspec := job.spec
		if err := m.journal.Append(journal.Record{Kind: journal.KindSubmitted, Job: job.id, Spec: &jspec}); err != nil {
			m.journalErrors.Inc()
			cancel()
			m.mu.Lock()
			m.nextID--
			m.mu.Unlock()
			m.rejected.Inc()
			return nil, fmt.Errorf("served: journaling submission: %w", err)
		}
	}

	m.mu.Lock()
	// Guaranteed room: jmu serializes admissions, capacity was checked
	// above, and workers only ever drain the queue.
	m.queue <- job
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	m.submitted.Inc()
	m.depth.Set(float64(len(m.queue)))
	m.mu.Unlock()
	return job, nil
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return job, nil
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation of the job: a queued job turns terminal
// immediately; a running job's context is cancelled and its worker
// records the terminal state; a terminal job is left untouched.
func (m *Manager) Cancel(id string) error {
	job, err := m.Get(id)
	if err != nil {
		return err
	}
	job.mu.Lock()
	state := job.state
	if state == experiments.StateQueued {
		res := experiments.NewJobResult(job.spec, experiments.StateCancelled)
		res.ID = job.id
		res.Error = context.Canceled.Error()
		job.finishLocked(experiments.StateCancelled, res)
		job.mu.Unlock()
		m.finished.Inc()
		m.reg.Counter("served_job_states_total", obs.L("state", experiments.StateCancelled)).Inc()
		job.cancel()
		m.jlog(journal.Record{Kind: experiments.StateCancelled, Job: job.id, Result: &res})
		m.maybeCompact()
		return nil
	}
	job.mu.Unlock()
	// Running: the worker observes ctx and finishes the job as cancelled.
	// Terminal: cancelling the context is a no-op.
	job.cancel()
	return nil
}

// Drain stops intake and shuts the worker pool down gracefully: queued and
// running jobs keep going until ctx expires, at which point every job
// still alive is cancelled.  It returns ctx.Err() if the deadline forced
// cancellations, nil if everything finished on its own.  After Drain
// returns no job is running and Submit permanently rejects.
func (m *Manager) Drain(ctx context.Context) error {
	// jmu first: Submit holds it across its admission, so once we flip
	// draining under it no admission can be mid-flight against the
	// closing queue.  It is released before waiting — workers still need
	// it to journal their terminal records.
	m.jmu.Lock()
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.jmu.Unlock()
		return errors.New("served: drain already in progress")
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()
	m.jmu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		// Deadline: cancel everything still alive.  Workers drain the
		// remaining queue — each cancelled job turns terminal on its
		// first context check — so the pool still exits cleanly.
		err = ctx.Err()
		for _, job := range m.Jobs() {
			job.cancel()
		}
		<-idle
	}
	m.depth.Set(0)
	if m.journal != nil {
		// Clean-shutdown marker: its presence at the log tail tells the
		// next Open this was a drain, not a crash.
		m.jmu.Lock()
		if aerr := m.journal.Append(journal.Record{Kind: journal.KindDrained}); aerr != nil {
			m.journalErrors.Inc()
		}
		if cerr := m.journal.Close(); cerr != nil {
			m.journalErrors.Inc()
		}
		m.jmu.Unlock()
	}
	return err
}

// cacheFor returns the shared single-flight run cache for one cache
// partition (experiments.JobSpec.RunCacheKey): healthy jobs all share one
// set of memoized runs, chaos jobs share per fault spec.
func (m *Manager) cacheFor(partition string) *runner.Cache {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.caches[partition]
	if !ok {
		c = runner.NewCache()
		m.caches[partition] = c
	}
	return c
}

// worker runs queued jobs until the queue closes (Drain).
func (m *Manager) worker() {
	defer m.workers.Done()
	for job := range m.queue {
		m.runJob(job)
	}
}

// runJob moves one job through running to its terminal state.
func (m *Manager) runJob(job *Job) {
	m.depth.Set(float64(len(m.queue)))
	job.mu.Lock()
	if job.state != experiments.StateQueued {
		// Cancelled while queued; already terminal.
		job.mu.Unlock()
		return
	}
	job.state = experiments.StateRunning
	job.mu.Unlock()
	m.jlog(journal.Record{Kind: journal.KindStarted, Job: job.id})
	if m.beforeRun != nil {
		m.beforeRun(job)
	}

	m.running.Add(1)
	start := m.now()
	state, res := m.execute(job)
	m.wall.Observe(m.now().Sub(start).Seconds())
	m.running.Add(-1)
	m.finished.Inc()
	m.reg.Counter("served_job_states_total", obs.L("state", state)).Inc()

	job.mu.Lock()
	job.finishLocked(state, res)
	job.mu.Unlock()
	job.cancel()
	m.jlog(journal.Record{Kind: state, Job: job.id, Result: &res})
	m.maybeCompact()
}

// execute runs the job's experiment session and renders its report.
func (m *Manager) execute(job *Job) (string, experiments.JobResult) {
	res := experiments.NewJobResult(job.spec, experiments.StateFailed)
	res.ID = job.id
	opts, err := job.spec.SessionOptions()
	if err != nil {
		res.Error = err.Error()
		return experiments.StateFailed, res
	}
	if job.spec.Jobs == 0 && m.cfg.Jobs > 0 {
		opts = append(opts, experiments.WithJobs(m.cfg.Jobs))
	}
	opts = append(opts,
		experiments.WithContext(job.ctx),
		experiments.WithProgress(job.record),
		experiments.WithMetrics(m.reg),
		experiments.WithRunCache(m.cacheFor(job.spec.RunCacheKey())),
		experiments.WithClock(m.now),
	)
	sess := experiments.NewSession(opts...)
	var buf bytes.Buffer
	err = sess.WriteReport(&buf, experiments.ReportConfig{
		Only: job.spec.Exhibits,
		Now:  m.now,
	})
	res.RunErrors = sess.RunErrors()
	switch {
	case job.ctx.Err() != nil:
		res.Error = job.ctx.Err().Error()
		res.State = experiments.StateCancelled
	case err != nil:
		res.Error = err.Error()
		res.State = experiments.StateFailed
	default:
		res.Report = buf.String()
		res.State = experiments.StateDone
	}
	return res.State, res
}

// Job is one submitted experiment: its spec, lifecycle state, buffered
// progress events and (once terminal) its result.  All methods are safe
// for concurrent use.
type Job struct {
	id     string
	spec   experiments.JobSpec
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	state  string
	events []runner.EventRecord
	result experiments.JobResult
}

// ID returns the manager-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the normalized spec the job was submitted with.
func (j *Job) Spec() experiments.JobSpec { return j.spec }

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// terminal reports whether state is one of the three end states.
func terminal(state string) bool {
	switch state {
	case experiments.StateDone, experiments.StateFailed, experiments.StateCancelled:
		return true
	}
	return false
}

// Result returns the job's result so far: for a terminal job the full
// stored result, for a live job a status-only result (ID, state, spec).
func (j *Job) Result() experiments.JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.state) {
		return j.result
	}
	res := experiments.NewJobResult(j.spec, j.state)
	res.ID = j.id
	return res
}

// record buffers one progress event and wakes the streams waiting on it.
// It is the session's progress callback, called from worker goroutines.
func (j *Job) record(ev runner.Event) {
	j.mu.Lock()
	j.events = append(j.events, ev.Record())
	j.mu.Unlock()
	j.cond.Broadcast()
}

// finishLocked stores the terminal state and wakes all waiters; callers
// hold j.mu.
func (j *Job) finishLocked(state string, res experiments.JobResult) {
	j.state = state
	j.result = res
	j.cond.Broadcast()
}

// Next blocks until the job has events past from, turns terminal, or ctx
// expires; it returns the new events and the terminal flag.  A follower
// streams the job by calling Next in a loop until done is true and the
// returned batch is empty.
func (j *Job) Next(ctx context.Context, from int) (events []runner.EventRecord, done bool, err error) {
	stop := context.AfterFunc(ctx, func() { j.cond.Broadcast() })
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, terminal(j.state), ctx.Err()
		}
		if from < len(j.events) {
			return append([]runner.EventRecord(nil), j.events[from:]...), terminal(j.state), nil
		}
		if terminal(j.state) {
			return nil, true, nil
		}
		j.cond.Wait()
	}
}

// Wait blocks until the job is terminal or ctx expires, returning the
// final result.
func (j *Job) Wait(ctx context.Context) (experiments.JobResult, error) {
	stop := context.AfterFunc(ctx, func() { j.cond.Broadcast() })
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for !terminal(j.state) {
		if err := ctx.Err(); err != nil {
			return experiments.JobResult{}, err
		}
		j.cond.Wait()
	}
	return j.result, nil
}
