package pipeline

// The Stage contract says "the callee must not retain the slice": a batch
// is the caller's buffer, reused for the very next batch the moment Flush
// returns.  A stage that keeps a reference instead of copying what it
// needs works in unit tests (where each batch is a fresh slice) and then
// corrupts data under the real tracer, whose staging buffer is recycled —
// exactly the bug class batched hand-off makes easy to write.
//
// This file is an aliasing detector over every in-tree Stage/Sink
// implementation: drive a deterministic batch stream through each consumer
// twice — once untouched, once overwriting every batch with poison right
// after Flush returns — and require the final observable state to be
// byte-identical.  Any divergence means the consumer read the caller's
// slice after handing control back.

import (
	"fmt"
	"strings"
	"testing"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// poisonRun executes the harness for one consumer: build returns the flush
// entry point and a finalizer rendering every observable output of the
// consumer as a string.
func poisonRun[T any](t *testing.T, name string, batches func() [][]T, poison T,
	build func(t *testing.T) (flush func([]T) error, state func() string)) {
	t.Helper()
	run := func(poisonAfter bool) string {
		flush, state := build(t)
		for _, batch := range batches() {
			if err := flush(batch); err != nil {
				t.Fatalf("%s: flush: %v", name, err)
			}
			if poisonAfter {
				for i := range batch {
					batch[i] = poison
				}
			}
		}
		return state()
	}
	want := run(false)
	got := run(true)
	if got != want {
		t.Errorf("%s: observable state diverged after poisoning flushed batches — the consumer aliases the caller's slice\nclean:    %.300s\npoisoned: %.300s",
			name, want, got)
	}
}

// lcg is a tiny deterministic generator for batch contents.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 16)
}

// accessBatches returns a few deterministic raw-access batches of uneven
// length, addresses spanning enough lines to exercise cache state.
func accessBatches() [][]trace.Access {
	var g lcg = 42
	batches := make([][]trace.Access, 5)
	for b := range batches {
		batch := make([]trace.Access, 61+37*b)
		for i := range batch {
			r := g.next()
			op := trace.Read
			if r&3 == 0 {
				op = trace.Write
			}
			batch[i] = trace.Access{Addr: 0x10000 + r%16384*8, Size: 8, Op: op}
		}
		batches[b] = batch
	}
	return batches
}

// txBatches returns deterministic main-memory transaction batches.
func txBatches() [][]trace.Transaction {
	var g lcg = 7
	batches := make([][]trace.Transaction, 4)
	cycle := uint64(0)
	for b := range batches {
		batch := make([]trace.Transaction, 53+29*b)
		for i := range batch {
			r := g.next()
			cycle += r % 11
			batch[i] = trace.Transaction{Addr: 0x40000 + r%4096*64, Cycle: cycle, Write: r&1 == 0}
		}
		batches[b] = batch
	}
	return batches
}

// perfBatches returns deterministic performance-event batches.
func perfBatches() [][]trace.PerfEvent {
	var g lcg = 99
	batches := make([][]trace.PerfEvent, 4)
	for b := range batches {
		batch := make([]trace.PerfEvent, 47+23*b)
		for i := range batch {
			r := g.next()
			op := trace.Read
			if r&3 == 0 {
				op = trace.Write
			}
			batch[i] = trace.PerfEvent{
				Gap:    r % 7,
				Access: trace.Access{Addr: 0x20000 + r%8192*8, Size: 8, Op: op},
			}
		}
		batches[b] = batch
	}
	return batches
}

var (
	poisonAccess = trace.Access{Addr: 0xdeadbeefdeadbeef, Size: 255, Op: trace.Write}
	poisonTx     = trace.Transaction{Addr: 0xdeadbeefdeadbeef, Cycle: ^uint64(0), Write: true}
	poisonPerf   = trace.PerfEvent{Gap: ^uint64(0), Access: trace.Access{Addr: 0xdeadbeefdeadbeef, Size: 255, Op: trace.Write}}
)

// metricsState renders a registry snapshot for state comparison.
func metricsState(reg *obs.Registry) string {
	var sb strings.Builder
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		return "metrics: " + err.Error()
	}
	return sb.String()
}

// TestNoBatchAliasingCombinators covers the generic pipeline combinators
// and captures.
func TestNoBatchAliasingCombinators(t *testing.T) {
	poisonRun(t, "Capture", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			c := &Capture[trace.Access]{}
			return c.Flush, func() string { return fmt.Sprint(c.Items) }
		})
	poisonRun(t, "TxCapture", txBatches, poisonTx,
		func(t *testing.T) (func([]trace.Transaction) error, func() string) {
			c := &TxCapture{}
			return c.FlushTx, func() string { return fmt.Sprint(c.Items) }
		})
	poisonRun(t, "Tee", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			a, b := &Capture[trace.Access]{}, &Capture[trace.Access]{}
			tee := Tee[trace.Access](a, b)
			return tee.Flush, func() string { return fmt.Sprint(a.Items, b.Items) }
		})
	poisonRun(t, "Filter", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			c := &Capture[trace.Access]{}
			f := Filter(func(a trace.Access) bool { return a.Op == trace.Write }, c)
			return f.Flush, func() string { return fmt.Sprint(c.Items) }
		})
	poisonRun(t, "Counted", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			reg := obs.NewRegistry()
			c := &Capture[trace.Access]{}
			s := Counted[trace.Access](reg, "aliasing", c)
			return s.Flush, func() string { return fmt.Sprint(c.Items) + metricsState(reg) }
		})
}

// TestNoBatchAliasingTraceSinks covers the trace package's terminal sinks:
// the stats tap and the binary stream writers.
func TestNoBatchAliasingTraceSinks(t *testing.T) {
	poisonRun(t, "trace.Stats", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			s := &trace.Stats{}
			return s.Flush, func() string { return fmt.Sprintf("%+v", *s) }
		})
	poisonRun(t, "trace.Writer/access", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			var sb strings.Builder
			w := trace.NewAccessWriter(&sb)
			return w.Flush, func() string {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%d:%x", w.Count(), sb.String())
			}
		})
	poisonRun(t, "trace.Writer/tx", txBatches, poisonTx,
		func(t *testing.T) (func([]trace.Transaction) error, func() string) {
			var sb strings.Builder
			w := trace.NewTransactionWriter(&sb)
			return w.FlushTx, func() string {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%d:%x", w.Count(), sb.String())
			}
		})
}

// TestNoBatchAliasingSimulators covers the simulator stages: the cache
// hierarchy (access batches in, transaction batches out), the power model
// and the timing model.
func TestNoBatchAliasingSimulators(t *testing.T) {
	poisonRun(t, "cachesim.Hierarchy", accessBatches, poisonAccess,
		func(t *testing.T) (func([]trace.Access) error, func() string) {
			c := &TxCapture{}
			h, err := cachesim.New(cachesim.PaperConfig(), c)
			if err != nil {
				t.Fatal(err)
			}
			return h.Flush, func() string {
				if err := h.Drain(); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(h.L1Stats(), h.L2Stats(), h.MemReads, h.MemWrites, c.Items)
			}
		})
	poisonRun(t, "dramsim.MemorySystem", txBatches, poisonTx,
		func(t *testing.T) (func([]trace.Transaction) error, func() string) {
			m, err := dramsim.New(dramsim.PaperConfig(dramsim.DDR3()))
			if err != nil {
				t.Fatal(err)
			}
			return m.FlushTx, func() string { return fmt.Sprintf("%+v", m.Report()) }
		})
	poisonRun(t, "cpusim.Core", perfBatches, poisonPerf,
		func(t *testing.T) (func([]trace.PerfEvent) error, func() string) {
			c := &TxCapture{}
			cfg := cpusim.PaperConfig(70)
			cfg.MemSink = c
			core, err := cpusim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return core.FlushEvents, func() string {
				return fmt.Sprintf("%+v %v", core.Stats(), c.Items)
			}
		})
	// The latency sweep hands one batch to every core in turn; the caller
	// recycles it only after the last core returns, so no core may keep it.
	poisonRun(t, "cpusim.Sweep", perfBatches, poisonPerf,
		func(t *testing.T) (func([]trace.PerfEvent) error, func() string) {
			sweep, err := cpusim.NewSweep([]string{"DRAM", "MRAM", "STTRAM", "PCRAM"}, []float64{10, 12, 20, 100})
			if err != nil {
				t.Fatal(err)
			}
			return sweep.FlushEvents, func() string {
				var sb strings.Builder
				for _, c := range sweep.Cores() {
					fmt.Fprintf(&sb, "%+v\n", c.Stats())
				}
				return fmt.Sprint(sb.String(), sweep.Results())
			}
		})
}
