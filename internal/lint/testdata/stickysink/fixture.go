// Package fixture exercises the stickysink contract.
package fixture

import "nvscavenger/internal/trace"

// guarded honours the contract: the sticky error is checked before the
// sink is invoked.
type guarded struct {
	sink trace.Sink
	err  error
}

func (g *guarded) flush(batch []trace.Access) {
	if g.err != nil {
		return
	}
	if err := g.sink.Flush(batch); err != nil {
		g.err = err
	}
}

// unguarded violates it: the sink is re-invoked even after an error has
// tripped sticky.
type unguarded struct {
	sink trace.TxSink
	err  error
}

func (u *unguarded) flush(batch []trace.Transaction) {
	if err := u.sink.FlushTx(batch); err != nil {
		u.err = err
	}
}

// guardedBatch honours the contract for a generic batch-callback sink,
// the shape of trace.Buffer.
type guardedBatch[E any] struct {
	sink func([]E) error
	err  error
}

func (g *guardedBatch[E]) flush(batch []E) {
	if g.err != nil {
		return
	}
	g.err = g.sink(batch)
}

// unguardedBatch calls its batch callback without the check.
type unguardedBatch[E any] struct {
	sink func([]E) error
	err  error
}

func (u *unguardedBatch[E]) flush(batch []E) {
	u.err = u.sink(batch)
}

var _ = (*guarded).flush
var _ = (*unguarded).flush
var _ = (*guardedBatch[trace.Access]).flush
var _ = (*unguardedBatch[trace.Transaction]).flush
