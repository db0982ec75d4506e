package pipeline

import "nvscavenger/internal/trace"

// Arenas bundles the batch arenas one pipeline domain shares: every staging
// slab and capture chunk of the stacks built against it is drawn from (and
// returned to) these three pools, so repeated and sharded
// runs recycle a fixed set of slabs instead of allocating per stack.
type Arenas struct {
	// Access holds raw-access batches (tracer staging buffers).
	Access *trace.Arena[trace.Access]
	// Tx holds main-memory transaction batches (hierarchy staging buffers,
	// sharded transaction captures).
	Tx *trace.Arena[trace.Transaction]
	// Perf holds performance-event batches (sharded perf captures).
	Perf *trace.Arena[trace.PerfEvent]
}

// NewArenas returns a bundle sized for stacks using the given access
// buffer size (zero selects trace.DefaultBufferSize); transaction batches
// use trace.DefaultTxBufferSize, matching the hierarchy's staging buffer.
func NewArenas(bufferSize int) *Arenas {
	if bufferSize <= 0 {
		bufferSize = trace.DefaultBufferSize
	}
	return &Arenas{
		Access: trace.NewArena[trace.Access](bufferSize),
		Tx:     trace.NewArena[trace.Transaction](trace.DefaultTxBufferSize),
		Perf:   trace.NewArena[trace.PerfEvent](bufferSize),
	}
}

// TxCapture is Capture with the concrete trace.TxSink contract on top, so a
// fused stack's transaction buffer flushes straight into it without an
// adapter closure.
type TxCapture struct {
	Capture[trace.Transaction]
}

// FlushTx implements trace.TxSink.
func (c *TxCapture) FlushTx(batch []trace.Transaction) error { return c.Flush(batch) }

// ChunkCapture is a terminal stage accumulating a stream into fixed-size
// chunks granted by an arena: capturing costs a bounded copy per batch, no
// growth reallocation ever, and Release hands every chunk back for the next
// run (or the next shard) to reuse.  The batch slice is copied, never
// retained.
type ChunkCapture[T any] struct {
	arena  *trace.Arena[T]
	chunks [][]T
	n      int // fill of the last chunk
}

// Flush implements Stage.
func (c *ChunkCapture[T]) Flush(batch []T) error {
	for len(batch) > 0 {
		if len(c.chunks) == 0 || c.n == c.arena.BatchSize() {
			c.chunks = append(c.chunks, c.arena.Get())
			c.n = 0
		}
		last := c.chunks[len(c.chunks)-1]
		copied := copy(last[c.n:], batch)
		c.n += copied
		batch = batch[copied:]
	}
	return nil
}

// Len returns the number of captured events.
func (c *ChunkCapture[T]) Len() int {
	if len(c.chunks) == 0 {
		return 0
	}
	return (len(c.chunks)-1)*c.arena.BatchSize() + c.n
}

// Deliver replays the captured stream, in order, as chunk-sized batches.
// The callee must not retain the slices (they return to the arena).
func (c *ChunkCapture[T]) Deliver(consume func(batch []T) error) error {
	for i, ch := range c.chunks {
		end := c.arena.BatchSize()
		if i == len(c.chunks)-1 {
			end = c.n
		}
		if end == 0 {
			continue
		}
		if err := consume(ch[:end]); err != nil {
			return err
		}
	}
	return nil
}

// Release hands every chunk back to the arena and resets the capture.
func (c *ChunkCapture[T]) Release() {
	for i := range c.chunks {
		c.arena.Put(c.chunks[i])
		c.chunks[i] = nil
	}
	c.chunks = c.chunks[:0]
	c.n = 0
}

// TxChunkCapture is ChunkCapture with the concrete trace.TxSink contract, so
// a sharded stack's transaction buffer flushes into it without an adapter.
type TxChunkCapture struct {
	ChunkCapture[trace.Transaction]
}

// NewTxChunkCapture returns an empty transaction capture drawing from a.
func NewTxChunkCapture(a *trace.Arena[trace.Transaction]) *TxChunkCapture {
	return &TxChunkCapture{ChunkCapture[trace.Transaction]{arena: a}}
}

// FlushTx implements trace.TxSink.
func (c *TxChunkCapture) FlushTx(batch []trace.Transaction) error { return c.Flush(batch) }

// PerfChunkCapture is ChunkCapture with the concrete trace.PerfSink
// contract for the performance-event stream of a sharded stack.
type PerfChunkCapture struct {
	ChunkCapture[trace.PerfEvent]
}

// NewPerfChunkCapture returns an empty perf capture drawing from a.
func NewPerfChunkCapture(a *trace.Arena[trace.PerfEvent]) *PerfChunkCapture {
	return &PerfChunkCapture{ChunkCapture[trace.PerfEvent]{arena: a}}
}

// FlushEvents implements trace.PerfSink.
func (c *PerfChunkCapture) FlushEvents(batch []trace.PerfEvent) error { return c.Flush(batch) }
