package memtrace

import (
	"fmt"

	"nvscavenger/internal/trace"
)

// ObjectID identifies a memory object within one Tracer.
type ObjectID uint32

// IterStats holds the per-iteration access counters for one memory object.
// Iteration 0 is the combined pre-computing/post-processing phase; iterations
// 1..N are timesteps of the main computation loop, matching the x-axis
// convention of Figure 7 in the paper.
type IterStats struct {
	Reads  uint64
	Writes uint64
	// Instructions is the number of instructions (memory and compute)
	// retired by the program during the iteration in which these counters
	// were accumulated.  It is the denominator of the reference-rate metric
	// and is identical for all objects within one iteration.
	Instructions uint64
}

// Refs returns the total references in this iteration.
func (s IterStats) Refs() uint64 { return s.Reads + s.Writes }

// Object is an application memory object: a heap allocation identified by
// its call-site signature, a global symbol (possibly a merged FORTRAN common
// block), a routine's stack frame, or the whole program stack (fast mode).
type Object struct {
	ID      ObjectID
	Name    string
	Segment trace.Segment
	// Base and Size describe the current address range.  For recycled heap
	// signatures the range is the most recent allocation's range.
	Base uint64
	Size uint64
	// Dead is set when a heap object has been freed and not re-allocated
	// (paper §III-B: a flag marks deallocated objects so stale address
	// matches are not attributed to them).
	Dead bool
	// AllocIter records the iteration in which the object first appeared
	// (0 = pre-computing phase).
	AllocIter int
	// Site is the allocation call site for heap objects ("file:line").
	Site string

	// perIter is indexed by iteration number.
	perIter []IterStats
	// total accumulates across all iterations.
	total IterStats
	// touched counts the number of distinct main-loop iterations (>0) in
	// which the object was referenced.
	touched int
	// sampledBytes accumulates the bytes of the object's observed
	// references; under byte sampling the Estimator turns it back into
	// reference counts.
	sampledBytes uint64

	// access-pattern tracking: the deltas between consecutive references
	// inside the object classify it as sequential, strided, or random.
	lastAddr   uint64
	lastDelta  int64
	haveLast   bool
	haveDelta  bool
	seqRefs    uint64 // |delta| <= 8 bytes (next element / same line walk)
	strideRefs uint64 // repeated constant delta > 8
	randomRefs uint64 // changing deltas
}

// String renders the object's identity and range for diagnostics.
func (o *Object) String() string {
	return fmt.Sprintf("%s[%s] base=%#x size=%d", o.Name, o.Segment, o.Base, o.Size)
}

// Contains reports whether addr falls inside the object's address range.
func (o *Object) Contains(addr uint64) bool {
	return addr >= o.Base && addr < o.Base+o.Size
}

// record attributes one access in the given iteration.
func (o *Object) record(iter int, isWrite bool, n uint64) {
	for len(o.perIter) <= iter {
		o.perIter = append(o.perIter, IterStats{})
	}
	s := &o.perIter[iter]
	wasUntouched := s.Refs() == 0
	if isWrite {
		s.Writes += n
		o.total.Writes += n
	} else {
		s.Reads += n
		o.total.Reads += n
	}
	if wasUntouched && iter > 0 {
		o.touched++
	}
}

// notePattern folds one reference address into the pattern counters.
func (o *Object) notePattern(addr uint64) {
	if !o.haveLast {
		o.haveLast = true
		o.lastAddr = addr
		return
	}
	delta := int64(addr) - int64(o.lastAddr)
	o.lastAddr = addr
	switch {
	case delta >= -8 && delta <= 8:
		o.seqRefs++
	case o.haveDelta && delta == o.lastDelta:
		o.strideRefs++
	default:
		o.randomRefs++
	}
	o.lastDelta = delta
	o.haveDelta = true
}

// Pattern is the dominant spatial access pattern of an object.
type Pattern uint8

const (
	// PatternUnknown means too few references to classify.
	PatternUnknown Pattern = iota
	// PatternSequential objects walk element by element — prefetchable and
	// row-buffer friendly, the easiest data to serve from slow NVRAM.
	PatternSequential
	// PatternStrided objects walk with a repeated constant stride.
	PatternStrided
	// PatternRandom objects jump unpredictably — their latency is exposed.
	PatternRandom
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternSequential:
		return "sequential"
	case PatternStrided:
		return "strided"
	case PatternRandom:
		return "random"
	}
	return "unknown"
}

// AccessPattern classifies the object from its reference deltas: the
// majority class wins, with ties broken toward the less NVRAM-friendly
// (more conservative) classification.
func (o *Object) AccessPattern() Pattern {
	total := o.seqRefs + o.strideRefs + o.randomRefs
	if total < 8 {
		return PatternUnknown
	}
	switch {
	case o.randomRefs*2 >= total:
		return PatternRandom
	case o.seqRefs >= o.strideRefs:
		return PatternSequential
	default:
		return PatternStrided
	}
}

// PatternCounts exposes the raw classifier inputs (sequential, strided,
// random reference counts).
func (o *Object) PatternCounts() (seq, strided, random uint64) {
	return o.seqRefs, o.strideRefs, o.randomRefs
}

// Total returns the accumulated counters across all iterations.
func (o *Object) Total() IterStats { return o.total }

// Iter returns the counters for iteration i (zero value if never touched).
func (o *Object) Iter(i int) IterStats {
	if i < 0 || i >= len(o.perIter) {
		return IterStats{}
	}
	return o.perIter[i]
}

// Iterations returns the number of iteration slots recorded (including
// iteration 0).
func (o *Object) Iterations() int { return len(o.perIter) }

// TouchedIterations returns the number of distinct main-loop iterations in
// which the object was referenced.  Objects used only in the pre/post phase
// return 0; they are NVRAM candidates by the Figure 7 analysis.
func (o *Object) TouchedIterations() int { return o.touched }

// ReadWriteRatio returns total reads / total writes.  For an object with no
// writes at all ("read-only data structures", §VII-B), it returns the read
// count, which is >= any classification threshold whenever the object was
// read at least once.
func (o *Object) ReadWriteRatio() float64 {
	if o.total.Writes == 0 {
		return float64(o.total.Reads)
	}
	return float64(o.total.Reads) / float64(o.total.Writes)
}

// LoopStats returns the counters summed over the main computation loop only
// (iterations >= 1), excluding the pre-computing/post-processing phase.
// The paper's per-object metrics are all main-loop metrics: references are
// recorded "only during the main computation loop" (§VI), so initialization
// writes do not count against a structure that the solver itself never
// writes.
func (o *Object) LoopStats() IterStats {
	var out IterStats
	for i := 1; i < len(o.perIter); i++ {
		out.Reads += o.perIter[i].Reads
		out.Writes += o.perIter[i].Writes
		out.Instructions += o.perIter[i].Instructions
	}
	return out
}

// LoopReadWriteRatio is ReadWriteRatio restricted to the main loop.
func (o *Object) LoopReadWriteRatio() float64 {
	s := o.LoopStats()
	if s.Writes == 0 {
		return float64(s.Reads)
	}
	return float64(s.Reads) / float64(s.Writes)
}

// LoopReadOnly reports whether the object was read but never written during
// the main loop — §VII-B's "read-only data structures" (initialized during
// pre-computing, read many times during computation).
func (o *Object) LoopReadOnly() bool {
	s := o.LoopStats()
	return s.Writes == 0 && s.Reads > 0
}

// LoopReferenceRate returns main-loop references per million main-loop
// instructions.
func (o *Object) LoopReferenceRate() float64 {
	s := o.LoopStats()
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Refs()) / float64(s.Instructions) * 1e6
}

// IterReadWriteRatio returns the read/write ratio within iteration i.
func (o *Object) IterReadWriteRatio(i int) float64 {
	s := o.Iter(i)
	if s.Writes == 0 {
		return float64(s.Reads)
	}
	return float64(s.Reads) / float64(s.Writes)
}

// ReadOnly reports whether the object was read but never written.
func (o *Object) ReadOnly() bool {
	return o.total.Writes == 0 && o.total.Reads > 0
}

// ReferenceRate returns total references to the object per million retired
// instructions, the paper's third metric.
func (o *Object) ReferenceRate() float64 {
	var instr uint64
	for _, s := range o.perIter {
		instr += s.Instructions
	}
	if instr == 0 {
		return 0
	}
	return float64(o.total.Refs()) / float64(instr) * 1e6
}

// IterReferenceRate returns references per million instructions within
// iteration i.
func (o *Object) IterReferenceRate(i int) float64 {
	s := o.Iter(i)
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Refs()) / float64(s.Instructions) * 1e6
}
