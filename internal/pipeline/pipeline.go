// Package pipeline is the composable batch-propagating dataflow layer of
// the simulator: it assembles the instrumentation tracer, the cache
// hierarchy and the downstream consumers (trace capture, file writers, the
// power and timing simulators) into one stack whose every stage boundary
// moves events in batches.
//
// The paper's §III-D memory-buffer optimization batches the first hop only
// (instrumented references into the analysis code).  This package extends
// the same amortization to every later hop — raw accesses into the cache
// simulator, filtered main-memory transactions into the power simulator,
// performance events into the CPU timing model — so the per-event interface
// call is paid once per batch everywhere.
//
// The stage contract is generic: a Stage[T] consumes batches of T.  The
// combinators (Tee, Filter, Counted) compose stages; Build wires a full
// tracer → hierarchy → consumers stack from one declarative Config, always
// fused, and Run drives one instrumented application run through it.
package pipeline

import (
	"context"
	"fmt"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// Stage consumes batches of events.  Flush is called with a full (or final,
// possibly short) batch; the callee must not retain the slice.  trace.Sink
// is structurally a Stage[trace.Access], so existing access consumers plug
// in unchanged.
type Stage[T any] interface {
	Flush(batch []T) error
}

// StageFunc adapts a function to the Stage interface.
type StageFunc[T any] func(batch []T) error

// Flush calls f(batch).
func (f StageFunc[T]) Flush(batch []T) error { return f(batch) }

// Tee fans each batch out to every stage in order, stopping at the first
// error.  The batch slice is shared, not copied; stages must not retain or
// mutate it.
func Tee[T any](stages ...Stage[T]) Stage[T] {
	return StageFunc[T](func(batch []T) error {
		for _, s := range stages {
			if err := s.Flush(batch); err != nil {
				return err
			}
		}
		return nil
	})
}

// filter forwards only the events satisfying pred, re-batched through a
// reused scratch buffer so filtering adds no per-batch allocation.
type filter[T any] struct {
	pred    func(T) bool
	next    Stage[T]
	scratch []T
}

// Filter returns a stage forwarding only events for which pred is true.
// Empty filtered batches are not forwarded.
func Filter[T any](pred func(T) bool, next Stage[T]) Stage[T] {
	return &filter[T]{pred: pred, next: next}
}

// Flush implements Stage.
func (f *filter[T]) Flush(batch []T) error {
	f.scratch = f.scratch[:0]
	for _, v := range batch {
		if f.pred(v) {
			f.scratch = append(f.scratch, v)
		}
	}
	if len(f.scratch) == 0 {
		return nil
	}
	return f.next.Flush(f.scratch)
}

// counted instruments a stage boundary with obs counters.
type counted[T any] struct {
	next    Stage[T]
	batches *obs.Counter
	events  *obs.Counter
	errors  *obs.Counter
}

// Counted wraps next with live per-stage observability: batches, events and
// errors crossing this stage boundary land in the registry as the
// pipeline_batches_total / pipeline_events_total / pipeline_errors_total
// series labelled with the stage name.  Built stacks never need it (Close
// folds the same series from end-of-run totals); it serves streams whose
// batch shape comes from elsewhere, such as a trace-file reader.  A nil
// registry returns next unchanged.
func Counted[T any](reg *obs.Registry, stage string, next Stage[T], labels ...obs.Label) Stage[T] {
	if reg == nil {
		return next
	}
	ls := append(append([]obs.Label{}, labels...), obs.L("stage", stage))
	return &counted[T]{
		next:    next,
		batches: reg.Counter("pipeline_batches_total", ls...),
		events:  reg.Counter("pipeline_events_total", ls...),
		errors:  reg.Counter("pipeline_errors_total", ls...),
	}
}

// Flush implements Stage.
func (c *counted[T]) Flush(batch []T) error {
	c.batches.Inc()
	c.events.Add(uint64(len(batch)))
	if err := c.next.Flush(batch); err != nil {
		c.errors.Inc()
		return err
	}
	return nil
}

// Capture is a terminal stage accumulating every event in memory.
type Capture[T any] struct {
	// Items holds the captured events in arrival order.
	Items []T
}

// Flush implements Stage.
func (c *Capture[T]) Flush(batch []T) error {
	c.Items = append(c.Items, batch...)
	return nil
}

// TxCapture is Capture with the concrete trace.TxSink contract on top, so a
// fused stack's transaction buffer flushes straight into it without an
// adapter closure.
type TxCapture struct {
	Capture[trace.Transaction]
}

// FlushTx implements trace.TxSink.
func (c *TxCapture) FlushTx(batch []trace.Transaction) error { return c.Flush(batch) }

// TxStage adapts a trace.TxSink (method FlushTx) to the generic Stage
// contract so transaction consumers compose with the combinators.
func TxStage(s trace.TxSink) Stage[trace.Transaction] {
	return StageFunc[trace.Transaction](s.FlushTx)
}

// ToTxSink adapts a transaction Stage back to the trace.TxSink contract the
// cache hierarchy emits on.
func ToTxSink(s Stage[trace.Transaction]) trace.TxSink {
	return trace.TxSinkFunc(s.Flush)
}

// Config declares a full instrumentation stack.  Build assembles it; every
// tracer+hierarchy stack in the tree goes through here, so the event flow is
// batched and (when Metrics is set) observable at each stage boundary.
type Config struct {
	// StackMode selects whole-stack (fast) or per-frame (slow) stack
	// attribution in the tracer.
	StackMode memtrace.StackMode
	// Sample selects seeded sampled tracing in the tracer (periodic,
	// Bernoulli or byte-threshold selection; see memtrace.SampleSpec).
	// The zero value observes every reference.
	Sample memtrace.SampleSpec
	// BufferSize is the tracer's staging-buffer capacity (accesses and
	// performance events).  Zero selects trace.DefaultBufferSize.
	BufferSize int
	// Cache, when non-nil, inserts the cache-hierarchy stage: raw accesses
	// are filtered into main-memory transactions delivered to TxSinks.  Nil
	// builds a tracer-only stack (attribution without trace hand-off).
	Cache *cachesim.Config
	// CaptureTx, with Cache set, buffers the filtered transactions in
	// memory; Stack.Transactions returns them after Close.
	CaptureTx bool
	// TxSinks receive the filtered main-memory transaction batches (power
	// simulator, trace writers...).  Requires Cache.
	TxSinks []trace.TxSink
	// AccessTaps receive the raw access batches alongside (before) the
	// cache stage — e.g. a trace.Writer dumping the unfiltered stream.
	AccessTaps []trace.Sink
	// Perf receives the batched performance-event stream (the CPU timing
	// model).
	Perf trace.PerfSink
	// Metrics, when set, receives the pipeline_batches_total /
	// pipeline_events_total / pipeline_errors_total series of every stage
	// boundary the stack wires (transactions, accesses, perf), folded from
	// end-of-run totals when the stack closes.  It never changes the wiring.
	Metrics *obs.Registry
	// Labels are attached to every pipeline metric series.
	Labels []obs.Label
}

// Stack is an assembled dataflow: the tracer the instrumented application
// drives, plus the cache hierarchy behind it (when configured).
type Stack struct {
	// Tracer is the instrumentation entry point the application drives.
	Tracer *memtrace.Tracer
	// Hierarchy is the cache stage, or nil for tracer-only stacks.
	Hierarchy *cachesim.Hierarchy

	cfg      Config
	capture  *Capture[trace.Transaction]
	closed   bool
	closeErr error
}

// Build assembles the stack declared by cfg.  Every hop is fused: the
// tracer's staging buffer flushes straight into the concrete
// *cachesim.Hierarchy (or the one access tap), the hierarchy's transaction
// buffer straight into the one transaction consumer (a TxSink or the
// capture), and the perf buffer straight into the PerfSink — one direct call
// per batch.  Tee joins a hop only for genuine fan-out: several transaction
// consumers, or access taps next to the cache.  Stage metrics add nothing to
// the hot path; Close folds them from end-of-run totals.
func Build(cfg Config) (*Stack, error) {
	if cfg.Cache == nil && (len(cfg.TxSinks) > 0 || cfg.CaptureTx) {
		return nil, fmt.Errorf("pipeline: transaction consumers configured without a Cache stage")
	}
	st := &Stack{cfg: cfg}

	if cfg.Cache != nil {
		txSinks := append([]trace.TxSink{}, cfg.TxSinks...)
		if cfg.CaptureTx {
			tc := &TxCapture{}
			st.capture = &tc.Capture
			txSinks = append(txSinks, tc)
		}
		var txSink trace.TxSink
		switch len(txSinks) {
		case 0:
			// Statistics-only hierarchy: no transaction stage.
		case 1:
			txSink = txSinks[0]
		default:
			stages := make([]Stage[trace.Transaction], len(txSinks))
			for i, s := range txSinks {
				stages[i] = TxStage(s)
			}
			txSink = ToTxSink(Tee(stages...))
		}
		hier, err := cachesim.New(*cfg.Cache, txSink)
		if err != nil {
			return nil, err
		}
		st.Hierarchy = hier
	}

	var accessStages []Stage[trace.Access]
	if st.Hierarchy != nil {
		accessStages = append(accessStages, st.Hierarchy)
	}
	for _, tap := range cfg.AccessTaps {
		accessStages = append(accessStages, tap)
	}
	var sink trace.Sink
	switch len(accessStages) {
	case 0:
	case 1:
		sink = accessStages[0]
	default:
		sink = Tee(accessStages...)
	}

	st.Tracer = memtrace.New(memtrace.Config{
		StackMode:  cfg.StackMode,
		Sample:     cfg.Sample,
		BufferSize: cfg.BufferSize,
		Sink:       sink,
		Perf:       cfg.Perf,
	})
	return st, nil
}

// MustBuild is Build for known-good configurations.
func MustBuild(cfg Config) *Stack {
	st, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return st
}

// Run executes one instrumented run end to end: it creates the named app at
// the given scale, builds the stack cfg declares, drives the app for
// iterations main-loop iterations, and closes the stack on every path, error
// paths included, so the stage metrics are always folded.  It returns the
// finished stack and the app that executed the program.
func Run(ctx context.Context, cfg Config, app string, scale float64, iterations int) (*Stack, apps.App, error) {
	a, err := apps.New(app, scale)
	if err != nil {
		return nil, nil, err
	}
	st, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	err = apps.RunContext(ctx, a, st.Tracer, iterations)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return st, a, nil
}

// Transactions returns the captured main-memory trace (CaptureTx builds
// only); call after Close so end-of-run writebacks are included.
func (s *Stack) Transactions() []trace.Transaction {
	if s.capture == nil {
		return nil
	}
	return s.capture.Items
}

// Close finishes the run: it flushes the tracer's staging buffers, drains
// the cache hierarchy's resident dirty lines, pushes the final transaction
// batch downstream and folds the stage metrics.  Close is idempotent — the
// application runner may already have closed the tracer — and returns the
// first error any stage reported.
func (s *Stack) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	err := s.Tracer.Close()
	if s.Hierarchy != nil {
		derr := s.Hierarchy.Drain()
		if err == nil {
			err = derr
		}
		if err == nil {
			err = s.Hierarchy.Err()
		}
	}
	s.foldMetrics()
	s.closeErr = err
	return err
}

// foldMetrics publishes the pipeline_* series of every stage boundary the
// stack wires, from end-of-run totals, exactly as live Counted wrappers at
// each boundary would have recorded them.  The series are pure functions of
// those totals: a staging buffer flushes full batches plus one final partial
// and never calls a failed consumer again, so a boundary saw every emitted
// event its buffer did not drop, in ceil(events/batch) batches, with one
// error once the buffer tripped.  A failing TxSink therefore also records
// an error on the accesses boundary, whose flush returns the hierarchy's
// sticky transaction error.
func (s *Stack) foldMetrics() {
	cfg := s.cfg
	if cfg.Metrics == nil {
		return
	}
	tr, h := s.Tracer, s.Hierarchy
	if cfg.CaptureTx || len(cfg.TxSinks) > 0 {
		publishStage(cfg.Metrics, "transactions", h.MemReads+h.MemWrites-h.TxDropped(), h.TxTrips(), trace.DefaultTxBufferSize, cfg.Labels)
	}
	if h != nil || len(cfg.AccessTaps) > 0 {
		publishStage(cfg.Metrics, "accesses", tr.Sampled-tr.SinkDropped(), tr.SinkTrips(), cfg.BufferSize, cfg.Labels)
	}
	if cfg.Perf != nil {
		publishStage(cfg.Metrics, "perf", tr.Sampled-tr.PerfDropped(), tr.PerfTrips(), cfg.BufferSize, cfg.Labels)
	}
}

// publishStage adds one stage boundary's folded totals to reg.
func publishStage(reg *obs.Registry, stage string, events, errors uint64, bufSize int, labels []obs.Label) {
	if bufSize <= 0 {
		bufSize = trace.DefaultBufferSize
	}
	ls := append(append([]obs.Label{}, labels...), obs.L("stage", stage))
	reg.Counter("pipeline_batches_total", ls...).Add(ceilDiv(events, uint64(bufSize)))
	reg.Counter("pipeline_events_total", ls...).Add(events)
	reg.Counter("pipeline_errors_total", ls...).Add(errors)
}

// ceilDiv returns ceil(n/d) with ceilDiv(0, d) == 0.
func ceilDiv(n, d uint64) uint64 {
	if n == 0 {
		return 0
	}
	return (n + d - 1) / d
}
