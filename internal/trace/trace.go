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

import (
	"fmt"

	"nvscavenger/internal/resilience"
)

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

// DefaultBufferSize is the number of accesses staged before the buffer is
// handed to the sink.  Large enough to amortize the call, small enough to
// stay cache-resident.
const DefaultBufferSize = 1 << 14

// Buffer stages accesses and flushes them to a Sink in batches (§III-D).
type Buffer struct {
	sink    Sink
	buf     []Access
	n       int
	err     error
	dropped uint64
	retry   resilience.RetryPolicy
	retries uint64
	trips   uint64
	// Flushes counts how many times the staging buffer was drained; used by
	// the instrumentation-overhead benchmarks.
	Flushes uint64
}

// NewBuffer returns a Buffer of the given capacity flushing into sink.
// A non-positive size selects DefaultBufferSize.
func NewBuffer(sink Sink, size int) *Buffer {
	if size <= 0 {
		size = DefaultBufferSize
	}
	return &Buffer{sink: sink, buf: make([]Access, size)}
}

// Add stages one access, flushing if the buffer fills.  Errors from the sink
// are sticky and reported by Close; once a sink has failed it is never
// invoked again — subsequent batches are dropped and counted in Dropped.
func (b *Buffer) Add(a Access) {
	b.buf[b.n] = a
	b.n++
	if b.n == len(b.buf) {
		b.flush()
	}
}

// Err returns the first error reported by the sink, if any.
func (b *Buffer) Err() error { return b.err }

// Dropped returns the number of accesses discarded after the sink's first
// error (a failed sink is never called again).
func (b *Buffer) Dropped() uint64 { return b.dropped }

// SetRetry switches the buffer into recoverable mode: a failing flush is
// retried per the policy before the error trips sticky.  The zero policy
// (one attempt) is the historical fail-fast behaviour.
func (b *Buffer) SetRetry(p resilience.RetryPolicy) { b.retry = p }

// Retries returns how many flush retries the recoverable mode performed.
func (b *Buffer) Retries() uint64 { return b.retries }

// Trips returns 1 once the sink error has tripped sticky, else 0.  Kept a
// counter so the obs export reads the same for buffers and breakers.
func (b *Buffer) Trips() uint64 { return b.trips }

func (b *Buffer) flush() {
	if b.n == 0 {
		return
	}
	if b.err != nil {
		b.dropped += uint64(b.n)
		b.n = 0
		return
	}
	b.Flushes++
	r, err := b.retry.Do(func() error { return b.sink.Flush(b.buf[:b.n]) })
	b.retries += uint64(r)
	if err != nil {
		b.err = err
		b.trips++
	}
	b.n = 0
}

// Close drains any staged accesses and returns the first sink error.
func (b *Buffer) Close() error {
	b.flush()
	return b.err
}

// DefaultTxBufferSize is the number of transactions staged before a
// TxBuffer flushes.  The post-cache stream is one to three orders of
// magnitude thinner than the access stream, so the batch is smaller.
const DefaultTxBufferSize = 1 << 12

// TxBuffer stages main-memory transactions and flushes them to a TxSink in
// batches — the post-cache mirror of Buffer.  The cache hierarchy stages its
// line fills and writebacks here instead of invoking its sink per
// transaction.
type TxBuffer struct {
	sink    TxSink
	buf     []Transaction
	n       int
	err     error
	dropped uint64
	retry   resilience.RetryPolicy
	retries uint64
	trips   uint64
	// Flushes counts how many times the staging buffer was drained.
	Flushes uint64
}

// NewTxBuffer returns a TxBuffer of the given capacity flushing into sink.
// A non-positive size selects DefaultTxBufferSize.
func NewTxBuffer(sink TxSink, size int) *TxBuffer {
	if size <= 0 {
		size = DefaultTxBufferSize
	}
	return &TxBuffer{sink: sink, buf: make([]Transaction, size)}
}

// Add stages one transaction, flushing if the buffer fills.  Errors from
// the sink are sticky and reported by Close; once a sink has failed it is
// never invoked again — subsequent batches are dropped and counted.
func (b *TxBuffer) Add(t Transaction) {
	b.buf[b.n] = t
	b.n++
	if b.n == len(b.buf) {
		b.flush()
	}
}

// Err returns the first error reported by the sink, if any.
func (b *TxBuffer) Err() error { return b.err }

// Dropped returns the number of transactions discarded after the sink's
// first error.
func (b *TxBuffer) Dropped() uint64 { return b.dropped }

// SetRetry switches the buffer into recoverable mode: a failing flush is
// retried per the policy before the error trips sticky.
func (b *TxBuffer) SetRetry(p resilience.RetryPolicy) { b.retry = p }

// Retries returns how many flush retries the recoverable mode performed.
func (b *TxBuffer) Retries() uint64 { return b.retries }

// Trips returns 1 once the sink error has tripped sticky, else 0.
func (b *TxBuffer) Trips() uint64 { return b.trips }

func (b *TxBuffer) flush() {
	if b.n == 0 {
		return
	}
	if b.err != nil {
		b.dropped += uint64(b.n)
		b.n = 0
		return
	}
	b.Flushes++
	r, err := b.retry.Do(func() error { return b.sink.FlushTx(b.buf[:b.n]) })
	b.retries += uint64(r)
	if err != nil {
		b.err = err
		b.trips++
	}
	b.n = 0
}

// Flush drains any staged transactions to the sink without closing the
// buffer; the hierarchy calls it after its end-of-run Drain.
func (b *TxBuffer) Flush() error {
	b.flush()
	return b.err
}

// Close drains any staged transactions and returns the first sink error.
func (b *TxBuffer) Close() error {
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
