// Package trace defines the memory-event model shared by the NV-SCAVENGER
// instrumentation substrate, the cache hierarchy simulator, and the memory
// power simulator.
//
// The central type is Access, a single dynamic memory reference (address,
// size, operation).  Accesses are produced by the instrumented mini-apps,
// filtered by the cache simulator into main-memory Transactions, and replayed
// through the DRAMSim-like power model.
//
// The package also implements the buffered trace pipeline described in
// §III-D of the paper: references are staged into a fixed-size memory buffer
// and handed to the consumer in batches, which amortizes per-access overhead
// and reduces interference with the traced program's own data cache.
package trace

import "fmt"

// Op is the kind of a memory operation.
type Op uint8

const (
	// Read is a load from memory.
	Read Op = iota
	// Write is a store to memory.
	Write
)

// String returns "R" for Read and "W" for Write.
func (o Op) String() string {
	switch o {
	case Read:
		return "R"
	case Write:
		return "W"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Segment identifies which region of the simulated address space an address
// belongs to.  The instrumentation tool analyzes stack, heap and global data
// separately (paper §III).
type Segment uint8

const (
	// SegUnknown marks addresses outside all registered regions.
	SegUnknown Segment = iota
	// SegGlobal is the static data segment.
	SegGlobal
	// SegHeap is the dynamic allocation arena.
	SegHeap
	// SegStack is the downward-growing program stack.
	SegStack
)

// String names the segment the way the paper's tables do.
func (s Segment) String() string {
	switch s {
	case SegGlobal:
		return "global"
	case SegHeap:
		return "heap"
	case SegStack:
		return "stack"
	}
	return "unknown"
}

// Access is one dynamic memory reference.
type Access struct {
	// Addr is the simulated virtual address of the first byte touched.
	Addr uint64
	// Size is the number of bytes touched (1..255).
	Size uint8
	// Op says whether the reference is a load or a store.
	Op Op
}

// IsWrite reports whether the access is a store.
func (a Access) IsWrite() bool { return a.Op == Write }

// End returns the address one past the last byte touched.
func (a Access) End() uint64 { return a.Addr + uint64(a.Size) }

// Transaction is a main-memory request that survived the cache hierarchy:
// a last-level-cache miss (read) or a dirty eviction / writeback (write).
// Transactions are always one cache line long.
type Transaction struct {
	// Addr is the line-aligned physical address.
	Addr uint64
	// Write is true for writebacks, false for fill reads.
	Write bool
	// Cycle is the (approximate) CPU cycle at which the request was issued.
	// A zero cycle means "no timing information"; the power simulator then
	// processes requests at full speed and reports average power, exactly as
	// §IV describes for trace-driven runs.
	Cycle uint64
}

// Sink consumes batches of accesses.  Flush is called with a full (or final,
// possibly short) buffer; the callee must not retain the slice.
type Sink interface {
	Flush(batch []Access) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(batch []Access) error

// Flush calls f(batch).
func (f SinkFunc) Flush(batch []Access) error { return f(batch) }

// TxSink consumes batches of main-memory transactions — the post-cache
// mirror of Sink.  Every stage boundary of the memory-event dataflow moves
// events in batches (accesses, transactions, performance events), so the
// per-event interface-call overhead of the §III-D memory-buffer
// optimization is paid once per batch at every hop, not just the first.
// The callee must not retain the slice.
type TxSink interface {
	FlushTx(batch []Transaction) error
}

// TxSinkFunc adapts a function to the TxSink interface.
type TxSinkFunc func(batch []Transaction) error

// FlushTx calls f(batch).
func (f TxSinkFunc) FlushTx(batch []Transaction) error { return f(batch) }

// PerfEvent is one entry of the performance-event stream: a memory
// reference preceded by Gap non-memory (ALU/branch) instructions.  The
// trace-driven CPU timing model consumes these in program order.
type PerfEvent struct {
	// Gap is the number of non-memory instructions retired since the
	// previous reference.
	Gap uint64
	// Access is the memory reference itself.
	Access Access
}

// PerfSink consumes batches of performance events, so references and
// instruction gaps travel in the same flush as the rest of the dataflow.
type PerfSink interface {
	FlushEvents(batch []PerfEvent) error
}

// PerfSinkFunc adapts a function to the PerfSink interface.
type PerfSinkFunc func(batch []PerfEvent) error

// FlushEvents calls f(batch).
func (f PerfSinkFunc) FlushEvents(batch []PerfEvent) error { return f(batch) }

// DefaultBufferSize is the number of events staged before the buffer is
// handed to the sink.  Large enough to amortize the call, small enough to
// stay cache-resident.
const DefaultBufferSize = 1 << 14

// DefaultTxBufferSize is the number of transactions the cache hierarchy
// stages before it flushes.  The post-cache stream is one to three orders
// of magnitude thinner than the access stream, so the batch is smaller.
const DefaultTxBufferSize = 1 << 12

// Buffer stages events and hands them to a sink in batches (§III-D).  One
// Buffer sits at every hop of the memory-event dataflow: accesses into the
// cache hierarchy (a Sink's Flush), transactions out of it (a TxSink's
// FlushTx) and performance events into the CPU model (a PerfSink's
// FlushEvents).
//
// Errors from the sink are sticky: once a sink has failed it is never
// invoked again, and every event staged after the failing batch is dropped
// and counted in Dropped.  Err, Dropped, Trips and Close are safe on a nil
// Buffer, which reads as a healthy empty one.
type Buffer[E any] struct {
	sink    func([]E) error
	buf     []E
	err     error
	dropped uint64
	// Flushes counts how many times the staging buffer was drained.
	Flushes uint64
}

// NewBuffer returns a Buffer of the given capacity flushing into sink,
// typically a method value such as s.Flush.  A non-positive size selects
// DefaultBufferSize.
func NewBuffer[E any](sink func([]E) error, size int) *Buffer[E] {
	if size <= 0 {
		size = DefaultBufferSize
	}
	return &Buffer[E]{sink: sink, buf: make([]E, 0, size)}
}

// Add stages one event, flushing if the buffer fills.  It is written as an
// append rather than an indexed store because that form stays within the
// inliner's budget, so the per-reference cost at the hot call sites is an
// append and a compare.
func (b *Buffer[E]) Add(e E) {
	b.buf = append(b.buf, e)
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

// Err returns the first error reported by the sink, if any.
func (b *Buffer[E]) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}

// Dropped returns the number of events discarded after the sink's first
// error.  The failing batch itself is not counted.
func (b *Buffer[E]) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// Trips returns 1 once the sink error has tripped sticky, else 0.
func (b *Buffer[E]) Trips() uint64 {
	if b == nil || b.err == nil {
		return 0
	}
	return 1
}

func (b *Buffer[E]) flush() {
	if len(b.buf) == 0 {
		return
	}
	if b.err != nil {
		b.dropped += uint64(len(b.buf))
		b.buf = b.buf[:0]
		return
	}
	b.Flushes++
	b.err = b.sink(b.buf)
	b.buf = b.buf[:0]
}

// Close drains any staged events and returns the first sink error.  The
// buffer stays usable, so a mid-run Close is a plain flush.
func (b *Buffer[E]) Close() error {
	if b == nil {
		return nil
	}
	b.flush()
	return b.err
}

// Stats accumulates aggregate counts over an access stream.  It doubles as a
// Sink so it can terminate a pipeline.
type Stats struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrite uint64
}

// Observe adds one access to the totals.
func (s *Stats) Observe(a Access) {
	if a.Op == Write {
		s.Writes++
		s.BytesWrite += uint64(a.Size)
	} else {
		s.Reads++
		s.BytesRead += uint64(a.Size)
	}
}

// Flush implements Sink.
func (s *Stats) Flush(batch []Access) error {
	for _, a := range batch {
		s.Observe(a)
	}
	return nil
}

// Total returns the total number of references.
func (s *Stats) Total() uint64 { return s.Reads + s.Writes }

// ReadWriteRatio returns reads/writes; if there are no writes it returns
// +Inf-like sentinel: the read count itself (callers treat a ratio above any
// threshold as "read-only" when Writes==0).
func (s *Stats) ReadWriteRatio() float64 {
	if s.Writes == 0 {
		if s.Reads == 0 {
			return 0
		}
		return float64(s.Reads)
	}
	return float64(s.Reads) / float64(s.Writes)
}
