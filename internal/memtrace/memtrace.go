// Package memtrace is the NV-SCAVENGER instrumentation substrate.
//
// The original tool (paper §III) instruments every instruction of a native
// binary with PIN and statistically reports NVRAM-relevant access patterns
// per memory object in the stack, heap and global data segments.  Go has no
// dynamic binary instrumentation ecosystem, so this package substitutes an
// instrumented-memory API over a simulated address space: the mini
// applications allocate arrays through a traced allocator, announce routine
// entry/exit to a shadow call stack, and perform loads/stores through traced
// accessors.  The resulting event stream — (address, size, op) plus program
// context — is identical in content to what PIN-level instrumentation
// observes, and all attribution machinery from §III is implemented on top of
// it: stack frame attribution in fast and slow modes, heap signatures with
// dead-object flags, common-block merging, a bucketed object index with
// dynamic rebalancing, an LRU software object cache, and buffered trace
// hand-off to the cache simulator.
package memtrace

import "nvscavenger/internal/trace"

// Config controls a Tracer.
type Config struct {
	// StackMode selects whole-stack (fast) or per-frame (slow) stack
	// attribution.  Default FastStack.
	StackMode StackMode
	// ObjectCacheSize is the capacity of the LRU software object cache on
	// the attribution path.  Negative disables the cache; zero selects the
	// default (8 entries).
	ObjectCacheSize int
	// BufferSize is the capacity of the staging buffer in front of Sink.
	// Zero selects trace.DefaultBufferSize.
	BufferSize int
	// Sink optionally receives the raw access stream in batches (typically
	// the cache hierarchy simulator).  Nil disables trace hand-off; the
	// tracer then only maintains per-object statistics.
	Sink trace.Sink
	// StackReserve is the simulated stack size in bytes.  Zero selects
	// 256 MiB, plenty for the mini-apps (scientific codes commonly raise
	// their stack limits, §III-A).
	StackReserve uint64
	// Perf optionally receives the performance-event stream: each memory
	// reference together with the number of non-memory instructions retired
	// since the previous reference.  Events are staged into a buffer the
	// size of BufferSize and delivered in batches, so references and
	// instruction gaps travel in the same flush as the raw trace.  The
	// trace-driven CPU timing simulator consumes this stream for the
	// latency-sensitivity study (§V).
	Perf trace.PerfSink
	// Sample selects the sampled-tracing discipline: periodic, Bernoulli
	// or byte-threshold selection over a seeded PRNG (see SampleSpec).
	// The zero value observes every reference.  Sampled-out references
	// still retire an instruction and accumulate into the performance-event
	// gap, so perf-event streams sum to true retired instructions at any
	// rate; use Estimator to rescale the observed per-object counters into
	// estimates of the true values.
	Sample SampleSpec
}

// PerfSink is the batched performance-event consumer contract; it is
// trace.PerfSink, aliased here for call sites that configure a Tracer.
type PerfSink = trace.PerfSink

// Tracer observes the access stream of one instrumented program.
type Tracer struct {
	cfg Config
	reg *registry
	// buf stages the access stream for cfg.Sink and perf the
	// performance-event stream for cfg.Perf; each is nil when its sink is.
	buf  *trace.Buffer[trace.Access]
	perf *trace.Buffer[trace.PerfEvent]

	// iteration state
	iter       int
	iterInstrs []uint64 // retired instructions per iteration
	instrs     uint64   // instructions in the current iteration

	// per-segment, per-iteration reference counters (Table V input),
	// indexed by trace.Segment
	segIter [trace.SegStack + 1][]trace.Stats

	// stack state
	frames     []frame
	sp         uint64
	maxSP      uint64
	minSP      uint64
	stackLimit uint64
	stackObj   *Object // fast-mode whole-stack object

	// slow-mode routine registry
	routines     map[string]*Object
	routineOrder []*Object

	heap    heapState
	globals globalState

	// Unknown counts references that fall outside every known region.
	Unknown uint64

	// perfGap accumulates Compute instructions since the last reference.
	perfGap uint64

	// sampler holds the gate state of the sampling modes.
	sampler sampler
	// Sampled counts references actually observed (== all references when
	// sampling is off).
	Sampled uint64
	// SampledOut counts references the gate skipped (retired but
	// unobserved); Sampled+SampledOut is the true reference count.
	SampledOut uint64

	closed bool
}

// New returns a Tracer with the given configuration.
func New(cfg Config) *Tracer {
	cacheSize := cfg.ObjectCacheSize
	switch {
	case cacheSize == 0:
		cacheSize = defaultCacheSize
	case cacheSize < 0:
		cacheSize = 0
	}
	reserve := cfg.StackReserve
	if reserve == 0 {
		reserve = 256 << 20
	}
	spec := cfg.Sample
	t := &Tracer{
		cfg:        cfg,
		reg:        newRegistry(cacheSize),
		sp:         stackBase,
		maxSP:      stackBase,
		minSP:      stackBase,
		stackLimit: stackBase - reserve,
		routines:   map[string]*Object{},
		heap:       newHeapState(),
		globals:    newGlobalState(),
		iterInstrs: []uint64{0},
		sampler:    newSampler(spec),
	}
	if cfg.StackMode == FastStack {
		t.stackObj = t.reg.newObject(Object{
			Name:    "stack",
			Segment: trace.SegStack,
		})
	}
	if cfg.Sink != nil {
		t.buf = trace.NewBuffer(cfg.Sink.Flush, cfg.BufferSize)
	}
	if cfg.Perf != nil {
		t.perf = trace.NewBuffer(cfg.Perf.FlushEvents, cfg.BufferSize)
	}
	return t
}

// Iteration returns the current iteration number (0 = pre/post phase).
func (t *Tracer) Iteration() int { return t.iter }

// BeginIteration enters the next main-loop timestep.  The first call moves
// from the pre-computing phase (iteration 0) to iteration 1.
func (t *Tracer) BeginIteration() {
	t.finishIterationAccounting()
	t.iter = len(t.iterInstrs)
	t.iterInstrs = append(t.iterInstrs, 0)
	t.instrs = 0
}

// EndIteration closes the current timestep and returns to no particular
// iteration until the next BeginIteration; accesses made between iterations
// are charged to the just-finished timestep (loop bookkeeping).
func (t *Tracer) EndIteration() {
	// Accounting is finalized lazily by the next BeginIteration/Close so
	// that inter-iteration bookkeeping still lands in a defined slot.
}

// PostPhase returns to iteration 0 for the post-processing phase.
func (t *Tracer) PostPhase() {
	t.finishIterationAccounting()
	t.iter = 0
	t.instrs = t.iterInstrs[0]
}

func (t *Tracer) finishIterationAccounting() {
	t.iterInstrs[t.iter] = t.instrs
	// Stamp the iteration's instruction count into every object touched in
	// it, establishing the reference-rate denominator.
	for _, o := range t.reg.allObjects() {
		if o.Iterations() > t.iter {
			s := &o.perIter[t.iter]
			if s.Refs() > 0 {
				s.Instructions = t.iterInstrs[t.iter]
			}
		}
	}
}

// Compute accounts n non-memory (ALU/branch) instructions.  Mini-app kernels
// call it to model the computation between memory references; the count
// feeds the reference-rate metric and the performance simulator.
func (t *Tracer) Compute(n uint64) {
	t.instrs += n
	t.perfGap += n
}

// Instructions returns total instructions retired so far across iterations.
func (t *Tracer) Instructions() uint64 {
	var sum uint64
	for i, v := range t.iterInstrs {
		if i == t.iter {
			sum += t.instrs
		} else {
			sum += v
		}
	}
	return sum
}

// IterationInstructions returns instructions retired in iteration i.
func (t *Tracer) IterationInstructions(i int) uint64 {
	if i == t.iter {
		return t.instrs
	}
	if i < 0 || i >= len(t.iterInstrs) {
		return 0
	}
	return t.iterInstrs[i]
}

// access is the single entry point for every memory reference.
//
//nvlint:hot
func (t *Tracer) access(addr uint64, size uint8, op trace.Op) {
	t.instrs++ // a reference is one retired instruction

	if t.sampler.spec.Enabled() && !t.sampler.observe(size) {
		// The reference retired but is not observed: it belongs in the
		// instruction gap of the next observed perf event, so gap sums
		// still add up to true retired instructions at any rate (a
		// sampled-out reference used to vanish from the perf stream,
		// silently drifting the CPU timing study).
		t.perfGap++
		t.SampledOut++
		return
	}
	t.Sampled++

	seg := t.classify(addr)
	stats := &t.segIter[seg]
	for len(*stats) <= t.iter {
		*stats = append(*stats, trace.Stats{})
	}
	(*stats)[t.iter].Observe(trace.Access{Addr: addr, Size: size, Op: op})

	var obj *Object
	switch seg {
	case trace.SegStack:
		obj = t.attributeStack(addr)
	case trace.SegHeap, trace.SegGlobal:
		obj = t.reg.lookup(addr)
	}
	if obj != nil {
		obj.record(t.iter, op == trace.Write, 1)
		obj.notePattern(addr)
		obj.sampledBytes += uint64(size)
	} else if seg == trace.SegUnknown {
		t.Unknown++
	}

	if t.buf != nil {
		t.buf.Add(trace.Access{Addr: addr, Size: size, Op: op})
	}
	if t.perf != nil {
		t.perf.Add(trace.PerfEvent{Gap: t.perfGap, Access: trace.Access{Addr: addr, Size: size, Op: op}})
		t.perfGap = 0
	}
}

// Sample returns the tracer's effective sampling configuration (the
// disabled spec for full runs).
func (t *Tracer) Sample() SampleSpec { return t.sampler.spec }

// PendingPerfGap returns the instructions retired since the last observed
// reference that have not yet been attached to a perf event (the tail of
// the stream).  sum(event gaps) + observed events + PendingPerfGap equals
// total retired instructions at any sampling rate.
func (t *Tracer) PendingPerfGap() uint64 { return t.perfGap }

// classify maps an address to its segment by the region layout.
func (t *Tracer) classify(addr uint64) trace.Segment {
	switch {
	case t.isStackAddr(addr):
		return trace.SegStack
	case addr >= heapBase && addr < t.heap.brk:
		return trace.SegHeap
	case addr >= globalBase && addr < t.globals.brk:
		return trace.SegGlobal
	}
	return trace.SegUnknown
}

// SegmentStats returns the aggregate counters for one segment in iteration
// i (zero value if none, or if seg is not a segment).
func (t *Tracer) SegmentStats(seg trace.Segment, iter int) trace.Stats {
	if int(seg) >= len(t.segIter) {
		return trace.Stats{}
	}
	s := t.segIter[seg]
	if iter < 0 || iter >= len(s) {
		return trace.Stats{}
	}
	return s[iter]
}

// SegmentTotals returns counters for one segment summed over a range of
// iterations [from, to].
func (t *Tracer) SegmentTotals(seg trace.Segment, from, to int) trace.Stats {
	var out trace.Stats
	for i := from; i <= to; i++ {
		s := t.SegmentStats(seg, i)
		out.Reads += s.Reads
		out.Writes += s.Writes
		out.BytesRead += s.BytesRead
		out.BytesWrite += s.BytesWrite
	}
	return out
}

// MainLoopIterations returns the number of main-loop timesteps recorded.
func (t *Tracer) MainLoopIterations() int { return len(t.iterInstrs) - 1 }

// Objects returns every object ever registered (stack routines, heap
// signatures, globals) in registration order.
func (t *Tracer) Objects() []*Object {
	objs := t.reg.allObjects()
	out := make([]*Object, 0, len(objs))
	for _, o := range objs {
		if o.Segment == trace.SegGlobal {
			// merged-away common-block members are dead; skip them
			if o.Dead {
				continue
			}
		}
		out = append(out, o)
	}
	return out
}

// StackObjects returns the stack-frame objects: in slow mode one per
// routine, in fast mode the single whole-stack object.
func (t *Tracer) StackObjects() []*Object {
	if t.cfg.StackMode == FastStack {
		return []*Object{t.stackObj}
	}
	out := make([]*Object, len(t.routineOrder))
	copy(out, t.routineOrder)
	return out
}

// StackHighWater returns the deepest stack extent in bytes.
func (t *Tracer) StackHighWater() uint64 { return stackBase - t.minSP }

// Footprint returns the total bytes of all registered data: global and heap
// object sizes plus the deepest stack extent.  This is the "memory footprint
// per task" of Table I.
func (t *Tracer) Footprint() uint64 {
	var sum uint64
	for _, o := range t.globals.order {
		sum += o.Size
	}
	seen := map[ObjectID]struct{}{}
	for _, o := range t.heap.order {
		if _, dup := seen[o.ID]; dup {
			continue
		}
		seen[o.ID] = struct{}{}
		sum += o.Size
	}
	sum += t.StackHighWater()
	return sum
}

// RegistryStats exposes attribution-path counters for the ablation
// benchmarks: total lookups, software-cache hits, objects scanned in
// buckets, and rebalance events.
func (t *Tracer) RegistryStats() (lookups, cacheHits, scanned, rebalances uint64) {
	return t.reg.Lookups, t.reg.CacheHits, t.reg.Scanned, t.reg.Rebalances
}

// SinkDropped returns the accesses dropped after the sink tripped.
func (t *Tracer) SinkDropped() uint64 { return t.buf.Dropped() }

// SinkTrips returns 1 once the sink error has tripped sticky, else 0.
func (t *Tracer) SinkTrips() uint64 { return t.buf.Trips() }

// PerfDropped returns the performance events dropped after the perf sink
// tripped.
func (t *Tracer) PerfDropped() uint64 { return t.perf.Dropped() }

// PerfTrips returns 1 once the perf sink's error has tripped sticky, else 0.
func (t *Tracer) PerfTrips() uint64 { return t.perf.Trips() }

// Close finalizes iteration accounting and flushes the trace and
// performance-event buffers, returning the first sink error.
func (t *Tracer) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.finishIterationAccounting()
	err := t.buf.Close()
	if perr := t.perf.Close(); err == nil {
		err = perr
	}
	return err
}
