package memtrace

import (
	"testing"

	"nvscavenger/internal/trace"
)

func newFast(t *testing.T) *Tracer {
	t.Helper()
	return New(Config{StackMode: FastStack})
}

func newSlow(t *testing.T) *Tracer {
	t.Helper()
	return New(Config{StackMode: SlowStack})
}

func TestIterationNumbering(t *testing.T) {
	tr := newFast(t)
	if tr.Iteration() != 0 {
		t.Fatalf("initial iteration = %d, want 0 (pre-compute)", tr.Iteration())
	}
	tr.BeginIteration()
	if tr.Iteration() != 1 {
		t.Fatalf("first timestep = %d, want 1", tr.Iteration())
	}
	tr.EndIteration()
	tr.BeginIteration()
	if tr.Iteration() != 2 {
		t.Fatalf("second timestep = %d, want 2", tr.Iteration())
	}
	tr.PostPhase()
	if tr.Iteration() != 0 {
		t.Fatalf("post phase iteration = %d, want 0", tr.Iteration())
	}
	if tr.MainLoopIterations() != 2 {
		t.Fatalf("MainLoopIterations = %d, want 2", tr.MainLoopIterations())
	}
}

func TestAccessAttributionBySegment(t *testing.T) {
	tr := newFast(t)
	g, _ := tr.GlobalF64("coeff", 16)
	h, hobj := tr.HeapF64("field", "app.go:1", 32)

	tr.BeginIteration()
	g.Store(0, 1.5)
	if v := g.Load(0); v != 1.5 {
		t.Fatalf("global data roundtrip = %v", v)
	}
	h.Store(3, 2.5)
	_ = h.Load(3)
	_ = h.Load(4)

	gs := tr.SegmentStats(trace.SegGlobal, 1)
	if gs.Reads != 1 || gs.Writes != 1 {
		t.Fatalf("global segment stats = %d/%d, want 1/1", gs.Reads, gs.Writes)
	}
	hs := tr.SegmentStats(trace.SegHeap, 1)
	if hs.Reads != 2 || hs.Writes != 1 {
		t.Fatalf("heap segment stats = %d/%d, want 2/1", hs.Reads, hs.Writes)
	}
	if got := hobj.Iter(1); got.Reads != 2 || got.Writes != 1 {
		t.Fatalf("heap object iter stats = %+v", got)
	}
}

func TestStackAttributionFastMode(t *testing.T) {
	tr := newFast(t)
	f := tr.Enter("kernel")
	loc := f.LocalF64(8)
	tr.BeginIteration()
	loc.Store(0, 1)
	_ = loc.Load(0)
	_ = loc.Load(1)
	tr.Leave()

	ss := tr.SegmentStats(trace.SegStack, 1)
	if ss.Reads != 2 || ss.Writes != 1 {
		t.Fatalf("stack segment stats = %d/%d, want 2/1", ss.Reads, ss.Writes)
	}
	objs := tr.StackObjects()
	if len(objs) != 1 || objs[0].Name != "stack" {
		t.Fatalf("fast mode should expose one whole-stack object, got %v", objs)
	}
	if got := objs[0].Total(); got.Reads != 2 || got.Writes != 1 {
		t.Fatalf("stack object totals = %+v", got)
	}
}

func TestComputeAndReferenceRate(t *testing.T) {
	tr := newFast(t)
	g, gobj := tr.GlobalF64("a", 4)
	tr.BeginIteration()
	g.Store(0, 1) // 1 instr
	tr.Compute(99)
	tr.BeginIteration() // finalizes iteration 1
	if got := tr.IterationInstructions(1); got != 100 {
		t.Fatalf("iteration 1 instructions = %d, want 100", got)
	}
	if rate := gobj.IterReferenceRate(1); rate != 1.0/100*1e6 {
		t.Fatalf("reference rate = %v, want 10000", rate)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestInstructionsAcrossPhases(t *testing.T) {
	tr := newFast(t)
	tr.Compute(10) // pre-compute
	tr.BeginIteration()
	tr.Compute(20)
	tr.BeginIteration()
	tr.Compute(30)
	tr.PostPhase()
	tr.Compute(5)
	if got := tr.Instructions(); got != 65 {
		t.Fatalf("total instructions = %d, want 65", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.IterationInstructions(0); got != 15 {
		t.Fatalf("phase-0 instructions = %d, want 15 (pre 10 + post 5)", got)
	}
	if got := tr.IterationInstructions(2); got != 30 {
		t.Fatalf("iteration 2 instructions = %d, want 30", got)
	}
	if got := tr.IterationInstructions(99); got != 0 {
		t.Fatalf("out-of-range iteration instructions = %d, want 0", got)
	}
}

func TestSinkReceivesAllAccesses(t *testing.T) {
	var st trace.Stats
	tr := New(Config{Sink: &st, BufferSize: 4})
	g, _ := tr.GlobalF64("x", 8)
	tr.BeginIteration()
	for i := 0; i < 8; i++ {
		g.Store(i, float64(i))
	}
	for i := 0; i < 5; i++ {
		_ = g.Load(i)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Writes != 8 || st.Reads != 5 {
		t.Fatalf("sink saw %d/%d, want 5 reads / 8 writes", st.Reads, st.Writes)
	}
}

func TestFootprintAndHighWater(t *testing.T) {
	tr := newFast(t)
	tr.Global("g", 1000)
	tr.Malloc("h", "a.go:1", 5000)
	f := tr.Enter("main")
	f.LocalF64(100) // 800 bytes
	if hw := tr.StackHighWater(); hw != 800 {
		t.Fatalf("stack high water = %d, want 800", hw)
	}
	fp := tr.Footprint()
	if fp != 1000+5000+800 {
		t.Fatalf("footprint = %d, want 6800", fp)
	}
	tr.Leave()
	// High water persists after Leave.
	if hw := tr.StackHighWater(); hw != 800 {
		t.Fatalf("high water after leave = %d, want 800", hw)
	}
}

func TestUnknownAddressCounted(t *testing.T) {
	tr := newFast(t)
	tr.access(0x99_0000_0000_0000, 8, trace.Read)
	if tr.Unknown != 1 {
		t.Fatalf("Unknown = %d, want 1", tr.Unknown)
	}
}

func TestSegmentTotalsRange(t *testing.T) {
	tr := newFast(t)
	g, _ := tr.GlobalF64("x", 4)
	for it := 0; it < 3; it++ {
		tr.BeginIteration()
		g.Store(0, 1)
		_ = g.Load(0)
	}
	tot := tr.SegmentTotals(trace.SegGlobal, 1, 3)
	if tot.Reads != 3 || tot.Writes != 3 {
		t.Fatalf("totals = %d/%d, want 3/3", tot.Reads, tot.Writes)
	}
	one := tr.SegmentTotals(trace.SegGlobal, 2, 2)
	if one.Reads != 1 || one.Writes != 1 {
		t.Fatalf("single-iteration totals = %d/%d, want 1/1", one.Reads, one.Writes)
	}
}

func TestObjectTouchedIterations(t *testing.T) {
	tr := newFast(t)
	g, gobj := tr.GlobalF64("sometimes", 4)
	h, hobj := tr.HeapF64("always", "a.go:2", 4)
	pre, preObj := tr.GlobalF64("preonly", 4)
	pre.Store(0, 1) // touched only in phase 0

	for it := 1; it <= 4; it++ {
		tr.BeginIteration()
		h.Store(0, 1)
		if it == 2 {
			g.Store(0, 1)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hobj.TouchedIterations(); got != 4 {
		t.Fatalf("always-touched object: %d iterations, want 4", got)
	}
	if got := gobj.TouchedIterations(); got != 1 {
		t.Fatalf("sometimes-touched object: %d iterations, want 1", got)
	}
	if got := preObj.TouchedIterations(); got != 0 {
		t.Fatalf("pre-phase-only object: %d iterations, want 0", got)
	}
}

func TestCloseIdempotent(t *testing.T) {
	tr := newFast(t)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectReadWriteRatioSemantics(t *testing.T) {
	tr := newFast(t)
	g, gobj := tr.GlobalF64("ro", 4)
	tr.BeginIteration()
	for i := 0; i < 7; i++ {
		_ = g.Load(0)
	}
	if !gobj.ReadOnly() {
		t.Fatal("object with only reads should be read-only")
	}
	if gobj.ReadWriteRatio() != 7 {
		t.Fatalf("read-only ratio = %v, want 7 (read count)", gobj.ReadWriteRatio())
	}
	g.Store(0, 1)
	if gobj.ReadOnly() {
		t.Fatal("object is no longer read-only after a write")
	}
	if gobj.ReadWriteRatio() != 7 {
		t.Fatalf("ratio = %v, want 7", gobj.ReadWriteRatio())
	}
	if gobj.IterReadWriteRatio(1) != 7 {
		t.Fatalf("iter ratio = %v, want 7", gobj.IterReadWriteRatio(1))
	}
	if gobj.IterReadWriteRatio(5) != 0 {
		t.Fatal("missing iteration should have ratio 0")
	}
}

func TestMatHelpers(t *testing.T) {
	tr := newFast(t)
	m, obj := tr.NewHeapMat("mat", "a.go:3", 3, 4)
	tr.BeginIteration()
	m.Set(1, 2, 42)
	if got := m.At(1, 2); got != 42 {
		t.Fatalf("mat roundtrip = %v", got)
	}
	m.Add(1, 2, 1)
	if got := m.At(1, 2); got != 43 {
		t.Fatalf("mat add = %v", got)
	}
	// Set(1) + At(1) + Add(2) + At(1) = 3 reads, 2 writes
	s := obj.Iter(1)
	if s.Reads != 3 || s.Writes != 2 {
		t.Fatalf("mat object stats = %d/%d, want 3/2", s.Reads, s.Writes)
	}
	gm, gobj := tr.NewGlobalMat("gmat", 2, 2)
	gm.Set(0, 0, 7)
	if gobj.Segment != trace.SegGlobal {
		t.Fatal("global matrix should be in global segment")
	}
}

// TestSegmentStatsOutOfRangeSegment: the per-segment counters are an
// array indexed by segment, so a value past the last segment must read as
// the zero value instead of indexing past the array.
func TestSegmentStatsOutOfRangeSegment(t *testing.T) {
	tr := newFast(t)
	g, _ := tr.GlobalF64("g", 4)
	tr.BeginIteration()
	g.Store(0, 1)
	if got := tr.SegmentStats(trace.SegGlobal, 1); got.Writes != 1 {
		t.Fatalf("global writes in iteration 1 = %d, want 1", got.Writes)
	}
	if got := tr.SegmentStats(trace.Segment(200), 1); got != (trace.Stats{}) {
		t.Errorf("SegmentStats(200, 1) = %+v, want the zero value", got)
	}
	if got := tr.SegmentTotals(trace.Segment(200), 0, 1); got != (trace.Stats{}) {
		t.Errorf("SegmentTotals(200, 0, 1) = %+v, want the zero value", got)
	}
}
