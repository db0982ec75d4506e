package pipeline

import (
	"errors"
	"testing"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

func TestTeeFansOutInOrderAndStopsOnError(t *testing.T) {
	var order []string
	mk := func(name string) Stage[int] {
		return StageFunc[int](func(batch []int) error {
			order = append(order, name)
			return nil
		})
	}
	boom := errors.New("boom")
	tee := Tee(mk("a"), mk("b"), StageFunc[int](func([]int) error { return boom }), mk("d"))
	if err := tee.Flush([]int{1}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v: Tee must visit stages in order and stop at the error", order)
	}
}

func TestFilterRebatchesAndSkipsEmpty(t *testing.T) {
	var got [][]int
	next := StageFunc[int](func(batch []int) error {
		got = append(got, append([]int{}, batch...))
		return nil
	})
	f := Filter(func(v int) bool { return v%2 == 0 }, next)
	if err := f.Flush([]int{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush([]int{1, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("downstream saw %d batches, want 1 (all-odd batch must be dropped)", len(got))
	}
	if len(got[0]) != 2 || got[0][0] != 2 || got[0][1] != 4 {
		t.Fatalf("filtered batch = %v, want [2 4]", got[0])
	}
}

func TestCountedInstrumentsStage(t *testing.T) {
	reg := obs.NewRegistry()
	fail := false
	next := StageFunc[int](func([]int) error {
		if fail {
			return errors.New("sink down")
		}
		return nil
	})
	c := Counted(reg, "test", next, obs.L("app", "x"))
	if err := c.Flush([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := c.Flush([]int{4}); err == nil {
		t.Fatal("error must propagate through Counted")
	}
	s := reg.Snapshot()
	ls := []obs.Label{obs.L("app", "x"), obs.L("stage", "test")}
	if v, _ := s.Counter("pipeline_batches_total", ls...); v != 2 {
		t.Fatalf("batches = %d, want 2", v)
	}
	if v, _ := s.Counter("pipeline_events_total", ls...); v != 4 {
		t.Fatalf("events = %d, want 4", v)
	}
	if v, _ := s.Counter("pipeline_errors_total", ls...); v != 1 {
		t.Fatalf("errors = %d, want 1", v)
	}
}

func TestCountedNilRegistryIsPassthrough(t *testing.T) {
	next := StageFunc[int](func([]int) error { return nil })
	if got := Counted[int](nil, "s", next); got == nil {
		t.Fatal("nil registry must return the stage unchanged, not nil")
	}
}

func TestCaptureAccumulates(t *testing.T) {
	var c Capture[int]
	c.Flush([]int{1, 2})
	c.Flush([]int{3})
	if len(c.Items) != 3 || c.Items[2] != 3 {
		t.Fatalf("captured %v", c.Items)
	}
}

func TestTxAdaptersRoundTrip(t *testing.T) {
	var txs []trace.Transaction
	sink := trace.TxSinkFunc(func(batch []trace.Transaction) error {
		txs = append(txs, batch...)
		return nil
	})
	stage := TxStage(sink)
	back := ToTxSink(stage)
	if err := back.FlushTx([]trace.Transaction{{Addr: 64}}); err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 || txs[0].Addr != 64 {
		t.Fatalf("txs = %v", txs)
	}
}

func TestBuildRejectsTxConsumersWithoutCache(t *testing.T) {
	if _, err := Build(Config{CaptureTx: true}); err == nil {
		t.Fatal("CaptureTx without Cache must be rejected")
	}
	sink := trace.TxSinkFunc(func([]trace.Transaction) error { return nil })
	if _, err := Build(Config{TxSinks: []trace.TxSink{sink}}); err == nil {
		t.Fatal("TxSinks without Cache must be rejected")
	}
}

// drive runs a synthetic workload against a stack's tracer: a strided sweep
// over a 1 MB array, two passes, half of them writes.
func drive(t *testing.T, st *Stack) {
	t.Helper()
	tr := st.Tracer
	a, _ := tr.HeapF64("a", "pipeline_test.go:1", 128*1024)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < a.Len(); i += 8 {
			if i%16 == 0 {
				a.Store(i, float64(i))
			} else {
				a.Load(i)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildEndToEndBatchesAndCaptures(t *testing.T) {
	reg := obs.NewRegistry()
	var teed []trace.Transaction
	teeSink := trace.TxSinkFunc(func(batch []trace.Transaction) error {
		teed = append(teed, batch...)
		return nil
	})
	var tapped int
	tap := trace.SinkFunc(func(batch []trace.Access) error {
		tapped += len(batch)
		return nil
	})
	cacheCfg := cachesim.PaperConfig()
	st, err := Build(Config{
		Cache:      &cacheCfg,
		CaptureTx:  true,
		TxSinks:    []trace.TxSink{teeSink},
		AccessTaps: []trace.Sink{tap},
		Metrics:    reg,
		Labels:     []obs.Label{obs.L("app", "synth")},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, st)

	txs := st.Transactions()
	if len(txs) == 0 {
		t.Fatal("no transactions captured")
	}
	if len(teed) != len(txs) {
		t.Fatalf("tee saw %d transactions, capture saw %d: tee must mirror the stream", len(teed), len(txs))
	}
	if tapped == 0 {
		t.Fatal("access tap saw nothing")
	}
	if got := st.Hierarchy.MemReads + st.Hierarchy.MemWrites; uint64(len(txs)) != got {
		t.Fatalf("captured %d transactions, hierarchy counted %d", len(txs), got)
	}

	s := reg.Snapshot()
	ls := func(stage string) []obs.Label {
		return []obs.Label{obs.L("app", "synth"), obs.L("stage", stage)}
	}
	accEvents, ok := s.Counter("pipeline_events_total", ls("accesses")...)
	if !ok || accEvents == 0 {
		t.Fatal("missing accesses stage events")
	}
	txEvents, ok := s.Counter("pipeline_events_total", ls("transactions")...)
	if !ok || txEvents != uint64(len(txs)) {
		t.Fatalf("transactions stage counted %d events, want %d", txEvents, len(txs))
	}
	if txEvents >= accEvents {
		t.Fatalf("cache stage must filter: %d transactions vs %d accesses", txEvents, accEvents)
	}
	accBatches, _ := s.Counter("pipeline_batches_total", ls("accesses")...)
	if accBatches == 0 || accEvents/accBatches < 2 {
		t.Fatalf("accesses moved in %d batches for %d events: not batched", accBatches, accEvents)
	}
}

func TestBuildPerfStage(t *testing.T) {
	reg := obs.NewRegistry()
	var events int
	perf := trace.PerfSinkFunc(func(batch []trace.PerfEvent) error {
		events += len(batch)
		return nil
	})
	st, err := Build(Config{Perf: perf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, st)
	if events == 0 {
		t.Fatal("perf sink saw no events")
	}
	got, ok := reg.Snapshot().Counter("pipeline_events_total", obs.L("stage", "perf"))
	if !ok || got != uint64(events) {
		t.Fatalf("perf stage counted %d, sink saw %d", got, events)
	}
}

func TestTracerOnlyStack(t *testing.T) {
	st, err := Build(Config{StackMode: memtrace.SlowStack})
	if err != nil {
		t.Fatal(err)
	}
	if st.Hierarchy != nil {
		t.Fatal("no cache configured, hierarchy must be nil")
	}
	drive(t, st)
	if st.Transactions() != nil {
		t.Fatal("tracer-only stack must not capture transactions")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	cacheCfg := cachesim.PaperConfig()
	st := MustBuild(Config{Cache: &cacheCfg, CaptureTx: true})
	drive(t, st) // drive already closes once
	n := len(st.Transactions())
	if n == 0 {
		t.Fatal("no transactions")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(st.Transactions()) != n {
		t.Fatal("second Close must not re-drain or duplicate transactions")
	}
}

func TestBuildSinkErrorSurfacesOnClose(t *testing.T) {
	boom := errors.New("downstream full")
	bad := trace.TxSinkFunc(func([]trace.Transaction) error { return boom })
	cacheCfg := cachesim.PaperConfig()
	st := MustBuild(Config{Cache: &cacheCfg, TxSinks: []trace.TxSink{bad}})
	tr := st.Tracer
	a, _ := tr.HeapF64("a", "pipeline_test.go:2", 64*1024)
	for i := 0; i < a.Len(); i += 8 {
		a.Store(i, 1)
	}
	if err := st.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the sink error", err)
	}
}
