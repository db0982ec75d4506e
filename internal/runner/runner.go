// Package runner is the concurrent experiment engine underneath
// internal/experiments: it schedules instrumentation runs across a bounded
// worker pool, deduplicates identical runs through a keyed single-flight
// cache, and emits run-level observability — per-run wall time,
// references/sec, cache hit/miss counters and an optional streaming
// progress callback.
//
// The paper's workflow is inherently a fan-out: every exhibit re-runs the
// instrumented applications over app × stack-mode × device-profile
// combinations, and §III-D runs the collection tools in parallel for
// exactly this reason.  The engine makes that fan-out explicit and shared:
// concurrent requests for the same run join one execution, different runs
// spread across the pool, and a cancelled context aborts the runs still
// queued.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nvscavenger/internal/obs"
	"nvscavenger/internal/stats"
)

// Key identifies one memoizable run: the application, the tool mode
// (fast/slow stack attribution, power replay, latency sweep, ...), the
// problem scale and iteration count, and an optional device-profile or
// parameter tag.  Two requests with equal keys share one execution.
type Key struct {
	App        string
	Mode       string
	Scale      float64
	Iterations int
	Profile    string
}

// DefaultScale and DefaultIterations are the calibrated experiment
// defaults (scale 1.0, the paper's 10-iteration collection window).
// Key.String elides them so that default runs keep their short labels.
const (
	DefaultScale      = 1.0
	DefaultIterations = 10
)

// String renders the key the way progress lines and metric labels show it.
// Scale and Iterations are included when non-default, so sweeps that vary
// only the problem scale or the iteration count stay distinguishable in
// progress output and deduplicate correctly as registry labels.
func (k Key) String() string {
	s := k.App + "/" + k.Mode
	if k.Scale != 0 && k.Scale != DefaultScale {
		s += "@s" + strconv.FormatFloat(k.Scale, 'g', -1, 64)
	}
	if k.Iterations != 0 && k.Iterations != DefaultIterations {
		s += "@i" + strconv.Itoa(k.Iterations)
	}
	if k.Profile != "" {
		s += "/" + k.Profile
	}
	return s
}

// Func produces the value for one run.  refs reports how many memory
// references (or equivalent work units) the run observed; it feeds the
// references/sec metric.
type Func func(ctx context.Context) (value any, refs uint64, err error)

// EventKind classifies progress events.
type EventKind int

const (
	// EventStart fires when a run acquires a worker slot and begins.
	EventStart EventKind = iota
	// EventDone fires when a run completes successfully.
	EventDone
	// EventCached fires when a request is served from the cache or joins
	// an execution already in flight.
	EventCached
	// EventError fires when a run fails (including cancellation).
	EventError
)

// String names the kind for log lines.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventDone:
		return "done"
	case EventCached:
		return "cached"
	case EventError:
		return "error"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one progress notification.  The callback is invoked from worker
// goroutines and must be safe for concurrent use.
//
// Events are the engine's streamable progress contract: they marshal to a
// stable JSON wire form (see EventRecord) so consumers beyond the process —
// the nvserved jobs API streams them per job — read the same payloads a
// local callback sees.  Seq and Time make a stream self-describing: Seq is
// a per-engine monotonic sequence number (gaps never occur, so a consumer
// can detect a dropped event), and Time comes from the engine's injected
// clock (WithClock), so a fake clock yields byte-identical event streams.
type Event struct {
	Kind EventKind
	Key  Key
	// Seq is the engine-wide monotonic sequence number, starting at 1.
	Seq uint64
	// Time is the emission timestamp read from the engine's clock.
	Time time.Time
	// Wall is the run's execution time (EventDone and EventError).
	Wall time.Duration
	// Refs is the run's observed reference count (EventDone).
	Refs uint64
	// Err is the failure (EventError).
	Err error
}

// EventRecord is the versionless JSON wire form of an Event: every field
// is a plain serializable type, the kind is its String name and the key its
// canonical label, so streams are stable across releases of the internal
// structs.  It is the line format of the jobs API's event stream.
type EventRecord struct {
	Kind string    `json:"kind"`
	Key  string    `json:"key"`
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// WallSeconds is the run's execution time (done and error events).
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Refs is the run's observed reference count (done events).
	Refs uint64 `json:"refs,omitempty"`
	// Error carries the failure message (error events).
	Error string `json:"error,omitempty"`
}

// Record converts the event to its wire form.
func (ev Event) Record() EventRecord {
	rec := EventRecord{
		Kind:        ev.Kind.String(),
		Key:         ev.Key.String(),
		Seq:         ev.Seq,
		Time:        ev.Time,
		WallSeconds: ev.Wall.Seconds(),
		Refs:        ev.Refs,
	}
	if ev.Err != nil {
		rec.Error = ev.Err.Error()
	}
	return rec
}

// MarshalJSON renders the event's wire form.
func (ev Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(ev.Record())
}

// RunMetrics records one executed (non-cached) run.
type RunMetrics struct {
	Key  Key
	Wall time.Duration
	Refs uint64
}

// RefsPerSec is the run's observed reference throughput.
func (r RunMetrics) RefsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Refs) / r.Wall.Seconds()
}

// Metrics is a snapshot of the engine's counters.
type Metrics struct {
	// Hits counts requests served from the cache or that joined an
	// in-flight execution which then succeeded; Misses counts requests
	// that triggered an execution; Errors counts executions that failed
	// (failures are not cached, so a later request retries).
	Hits, Misses, Errors uint64
	// JoinedFailures counts requests that joined an in-flight execution
	// which then failed.  They are deliberately not Hits: the waiter
	// received an error, not a cached value.
	JoinedFailures uint64
	// Runs holds the per-run records in completion order.
	Runs []RunMetrics
}

// TotalRefs sums the observed references across all completed runs.
func (m Metrics) TotalRefs() uint64 {
	var sum uint64
	for _, r := range m.Runs {
		sum += r.Refs
	}
	return sum
}

// WallSummary aggregates the per-run wall times (seconds).
func (m Metrics) WallSummary() stats.Summary {
	var s stats.Summary
	for _, r := range m.Runs {
		s.Add(r.Wall.Seconds())
	}
	return s
}

// Cache is the keyed single-flight run store.  It used to be private to
// one Engine; extracting it lets independent engines — one per submitted
// job in the nvserved daemon, each with its own context and progress
// stream — share one set of memoized runs, so concurrent clients
// requesting the same run still trigger exactly one execution.
//
// A Cache is safe for concurrent use by any number of engines.  Failed
// executions are removed, so a later request retries; values are stored
// forever (runs are deterministic, so a cached value never goes stale).
type Cache struct {
	mu sync.Mutex
	m  map[Key]*entry
}

// NewCache returns an empty run cache.
func NewCache() *Cache { return &Cache{m: map[Key]*entry{}} }

// Len returns the number of cached or in-flight entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Config configures an Engine.
type Config struct {
	// Jobs bounds concurrently executing runs; <= 0 selects GOMAXPROCS.
	Jobs int
	// Progress optionally receives streaming events.  It is called from
	// worker goroutines and must be safe for concurrent use.
	Progress func(Event)
	// Metrics is the registry the engine publishes its counters and
	// per-run wall-time histograms into.  Nil gets a private registry;
	// pass a shared one (the Session's) to aggregate across components.
	Metrics *obs.Registry
	// Cache is the single-flight run store.  Nil gets a private cache;
	// pass a shared one so several engines (concurrent service jobs)
	// deduplicate runs across engine instances.
	Cache *Cache
}

// Option adjusts an Engine beyond its Config.
type Option func(*Engine)

// WithClock overrides the engine's wall clock (default time.Now).  The
// clock only feeds the per-run wall metrics — run results never depend on
// it — so tests can assert exact wall histograms under a stepped fake
// clock, and the determinism lint allowlist shrinks to the single default
// site in New.
func WithClock(now func() time.Time) Option {
	return func(e *Engine) {
		if now != nil {
			e.now = now
		}
	}
}

// Engine executes keyed runs on a bounded worker pool with single-flight
// memoization.  The zero value is not usable; construct with New.
type Engine struct {
	cfg Config
	sem chan struct{}
	reg *obs.Registry
	now func() time.Time
	seq atomic.Uint64

	// Engine-level counters live in the registry so that worker
	// goroutines update them lock-free and snapshots see them next to
	// the simulators' counters.
	hits     *obs.Counter
	misses   *obs.Counter
	errs     *obs.Counter
	joinErrs *obs.Counter
	panics   *obs.Counter

	cache *Cache

	mu   sync.Mutex
	runs []RunMetrics
}

type entry struct {
	done  chan struct{}
	value any
	err   error
}

// New returns an Engine with the given configuration.
func New(cfg Config, opts ...Option) *Engine {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewCache()
	}
	e := &Engine{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Jobs),
		reg:      reg,
		now:      time.Now,
		hits:     reg.Counter("runner_hits_total"),
		misses:   reg.Counter("runner_misses_total"),
		errs:     reg.Counter("runner_errors_total"),
		joinErrs: reg.Counter("runner_joined_failures_total"),
		panics:   reg.Counter("runner_panics_recovered_total"),
		cache:    cache,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Registry returns the registry the engine publishes into.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Jobs returns the worker-pool bound.
func (e *Engine) Jobs() int { return e.cfg.Jobs }

// Do returns the value for key, executing fn on a worker slot if no
// execution of the same key is cached or in flight; otherwise the call
// joins the existing execution and returns its result.  A failed
// execution (including cancellation) is not cached, so a later Do with
// the same key retries.  Waiters honor their own context: a caller whose
// ctx is cancelled unblocks immediately, while the execution it joined
// continues for the remaining waiters.
func (e *Engine) Do(ctx context.Context, key Key, fn Func) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := e.cache
	c.mu.Lock()
	if ent, ok := c.m[key]; ok {
		c.mu.Unlock()
		// A join is only a cache hit once the execution it joined
		// resolves successfully; emitting EventCached on entry would
		// report "cached" for runs that actually failed.
		select {
		case <-ent.done:
			if ent.err != nil {
				e.joinErrs.Inc()
				return nil, ent.err
			}
			e.hits.Inc()
			e.emit(Event{Kind: EventCached, Key: key, Time: e.now()})
			return ent.value, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ent := &entry{done: make(chan struct{})}
	c.m[key] = ent
	e.misses.Inc()
	c.mu.Unlock()

	ent.value, ent.err = e.execute(ctx, key, fn)
	if ent.err != nil {
		c.mu.Lock()
		if c.m[key] == ent {
			delete(c.m, key)
		}
		c.mu.Unlock()
		e.errs.Inc()
	}
	close(ent.done)
	return ent.value, ent.err
}

func (e *Engine) execute(ctx context.Context, key Key, fn Func) (any, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := e.now()
	e.emit(Event{Kind: EventStart, Key: key, Time: start})
	// A run is deterministic and its faults are seeded, so a failed run is
	// reported, never re-executed: a second attempt would fail the same way.
	v, refs, err := e.attempt(ctx, fn)
	end := e.now()
	wall := end.Sub(start)
	if err != nil {
		e.emit(Event{Kind: EventError, Key: key, Time: end, Wall: wall, Err: err})
		return nil, fmt.Errorf("runner: %s: %w", key, err)
	}
	e.mu.Lock()
	e.runs = append(e.runs, RunMetrics{Key: key, Wall: wall, Refs: refs})
	e.mu.Unlock()
	e.reg.Counter("runner_runs_total").Inc()
	e.reg.Counter("runner_refs_total").Add(refs)
	e.reg.Histogram("runner_run_wall_seconds", obs.SecondsBuckets,
		obs.L("key", key.String())).Observe(wall.Seconds())
	e.emit(Event{Kind: EventDone, Key: key, Time: end, Wall: wall, Refs: refs})
	return v, nil
}

// attempt executes fn once, containing a worker panic to this run: the
// panic surfaces as a *PanicError instead of killing the whole parallel
// sweep.  memtrace's invariant assertions still panic at their site; this
// is where the engine absorbs them.
func (e *Engine) attempt(ctx context.Context, fn Func) (v any, refs uint64, err error) {
	err = Recover(func() error {
		var ferr error
		v, refs, ferr = fn(ctx)
		return ferr
	})
	var pe *PanicError
	if errors.As(err, &pe) {
		v, refs = nil, 0
		e.panics.Inc()
	}
	return v, refs, err
}

// PanicError is a panic converted to an error by Recover.  The recovered
// value and the goroutine stack at the panic site are preserved so chaos
// reports can show where a worker died.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the recovered value.
func (e *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.Value) }

// Recover runs fn, converting a panic into a *PanicError.  memtrace's
// invariant panics (double free, stack-discipline violations) stay panics
// at their site; this wrapper is how the experiment engine contains them
// to the failing run instead of letting one bad worker kill a whole sweep.
func Recover(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// emit stamps the event with the engine's next sequence number and hands it
// to the progress callback.  Seq advances even without a subscriber, so a
// consumer attached mid-run still sees strictly increasing numbers.
func (e *Engine) emit(ev Event) {
	ev.Seq = e.seq.Add(1)
	if e.cfg.Progress != nil {
		e.cfg.Progress(ev)
	}
}

// Metrics returns a snapshot of the engine's counters and per-run records.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Metrics{
		Hits:           e.hits.Value(),
		Misses:         e.misses.Value(),
		Errors:         e.errs.Value(),
		JoinedFailures: e.joinErrs.Value(),
		Runs:           append([]RunMetrics(nil), e.runs...),
	}
}

// Collect applies f to every item concurrently and returns the results and
// a parallel error slice, both in input order (failed indexes hold T's zero
// value).  Every item runs: a failure never cancels a sibling, so which
// items fail — and therefore any report or error built from the slices —
// is independent of scheduling.
func Collect[K, T any](ctx context.Context, items []K, f func(ctx context.Context, item K) (T, error)) ([]T, []error) {
	out := make([]T, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, item := range items {
		wg.Add(1)
		go func(i int, item K) {
			defer wg.Done()
			out[i], errs[i] = f(ctx, item)
		}(i, item)
	}
	wg.Wait()
	return out, errs
}
