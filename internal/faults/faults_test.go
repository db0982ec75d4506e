package faults

import (
	"context"
	"errors"
	"strings"
	"testing"

	"nvscavenger/internal/runner"
	"nvscavenger/internal/trace"
)

func TestParseEverySpec(t *testing.T) {
	spec, err := Parse("sink:every=50,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Target != TargetSink || spec.Every != 50 || spec.Seed != 7 || spec.Prob != 0 || spec.Mode != "" {
		t.Fatalf("spec = %+v", spec)
	}
	if !spec.Enabled() || !spec.Is(TargetSink) {
		t.Fatal("Enabled/Is must reflect the parsed target")
	}
}

func TestParseProbPanicSpec(t *testing.T) {
	spec, err := Parse("worker:prob=0.25,seed=3,mode=panic")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Target != TargetWorker || spec.Prob != 0.25 || spec.Seed != 3 || spec.Mode != ModePanic {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestParseDefaultsSeed(t *testing.T) {
	spec, err := Parse("access:every=10")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 {
		t.Fatalf("seed = %d, want default 1", spec.Seed)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, text := range []string{
		"",
		"sink",                      // no parameters
		"bogus:every=5",             // unknown target
		"sink:every=0",              // zero period
		"sink:prob=0",               // out-of-range probability
		"sink:prob=1.5",             // out-of-range probability
		"sink:seed=7",               // neither every nor prob
		"sink:every=5,prob=0.5",     // both
		"sink:every=5,mode=explode", // unknown mode
		"sink:every=5,magic=1",      // unknown key
		"sink:every",                // not key=value
		"sink:every=5,mode=short",   // short is writer-only
		"worker:every=5,mode=torn",  // torn is writer-only
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	for _, text := range []string{
		"sink:every=50,seed=7",
		"worker:mode=panic,prob=0.25,seed=3",
		"writer:every=3,mode=short,seed=5",
		"writer:every=3,mode=torn,seed=5",
	} {
		spec := MustParse(text)
		again, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", spec.String(), err)
		}
		if again != spec {
			t.Fatalf("round trip changed the spec: %+v vs %+v", spec, again)
		}
	}
	if (Spec{}).String() != "" {
		t.Error("zero spec must render empty")
	}
}

// TestInjectorEveryNth: a count-based injector trips exactly the Nth,
// 2Nth, ... calls — nothing else.
func TestInjectorEveryNth(t *testing.T) {
	in := Spec{Target: TargetSink, Every: 3}.NewInjector()
	var trips []uint64
	for i := 0; i < 9; i++ {
		if call, trip := in.Trip(); trip {
			trips = append(trips, call)
		}
	}
	want := []uint64{3, 6, 9}
	if len(trips) != len(want) {
		t.Fatalf("trips = %v, want %v", trips, want)
	}
	for i := range want {
		if trips[i] != want[i] {
			t.Fatalf("trips = %v, want %v", trips, want)
		}
	}
}

// TestInjectorSeededProbDeterministic: two injectors with the same spec
// produce the same decision sequence; a different seed produces a
// different one.
func TestInjectorSeededProbDeterministic(t *testing.T) {
	spec := Spec{Target: TargetSink, Prob: 0.3, Seed: 42}
	a, b := spec.NewInjector(), spec.NewInjector()
	tripped := 0
	for i := 0; i < 1000; i++ {
		_, ta := a.Trip()
		_, tb := b.Trip()
		if ta != tb {
			t.Fatalf("decision %d diverged between identical injectors", i)
		}
		if ta {
			tripped++
		}
	}
	if tripped == 0 || tripped == 1000 {
		t.Fatalf("prob=0.3 tripped %d/1000 — stream looks degenerate", tripped)
	}
	reference := spec.NewInjector()
	other := Spec{Target: TargetSink, Prob: 0.3, Seed: 43}.NewInjector()
	same := true
	for i := 0; i < 1000; i++ {
		_, ta := reference.Trip()
		_, tb := other.Trip()
		if ta != tb {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical decision streams")
	}
}

func TestTxSinkDecorator(t *testing.T) {
	var flushed int
	next := trace.TxSinkFunc(func(batch []trace.Transaction) error { flushed += len(batch); return nil })
	sink := TxSink(Spec{Target: TargetSink, Every: 2}, next)
	batch := []trace.Transaction{{Addr: 0x40}}
	if err := sink.FlushTx(batch); err != nil {
		t.Fatalf("call 1 must pass: %v", err)
	}
	err := sink.FlushTx(batch)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("call 2 err = %v, want ErrInjected", err)
	}
	if flushed != 1 {
		t.Fatalf("flushed = %d, want 1 (failed batch must not reach next)", flushed)
	}
}

func TestSinkAndPerfSinkDecorators(t *testing.T) {
	s := Sink(Spec{Target: TargetAccess, Every: 1}, trace.SinkFunc(func([]trace.Access) error {
		t.Fatal("every=1 must never reach the wrapped sink")
		return nil
	}))
	if err := s.Flush([]trace.Access{{Addr: 1, Size: 8}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	p := PerfSink(Spec{Target: TargetPerf, Every: 1}, trace.PerfSinkFunc(func([]trace.PerfEvent) error {
		t.Fatal("every=1 must never reach the wrapped perf sink")
		return nil
	}))
	if err := p.FlushEvents([]trace.PerfEvent{{Gap: 3}}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

func TestWriterDecorator(t *testing.T) {
	var sb strings.Builder
	w := Writer(Spec{Target: TargetWriter, Every: 2}, &sb)
	if _, err := w.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("lost"))
	if !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("write 2: n=%d err=%v, want 0/ErrInjected", n, err)
	}
	if sb.String() != "ok" {
		t.Fatalf("underlying writer got %q", sb.String())
	}
}

// TestWriterShortMode: a tripped short write delivers a prefix to the
// underlying writer, reports the short count, and fails with an error
// carrying both ErrInjected and ErrNoSpace; untripped calls pass through
// whole.
func TestWriterShortMode(t *testing.T) {
	var sb strings.Builder
	w := Writer(Spec{Target: TargetWriter, Every: 2, Mode: ModeShort}, &sb)
	if _, err := w.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("efgh"))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrNoSpace) {
		t.Fatalf("short write err = %v, want ErrInjected and ErrNoSpace", err)
	}
	if n != 2 {
		t.Fatalf("short write n = %d, want 2 (half the buffer)", n)
	}
	if sb.String() != "abcdef" {
		t.Fatalf("underlying writer got %q, want %q", sb.String(), "abcdef")
	}
}

// TestWriterTornMode: a tripped torn write delivers a prefix but lies
// about it — full length, nil error — so the data loss is invisible
// until someone re-reads what was written.
func TestWriterTornMode(t *testing.T) {
	var sb strings.Builder
	w := Writer(Spec{Target: TargetWriter, Every: 2, Mode: ModeTorn}, &sb)
	if _, err := w.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write([]byte("efgh"))
	if err != nil || n != 4 {
		t.Fatalf("torn write reported n=%d err=%v, want full success 4/nil", n, err)
	}
	if sb.String() != "abcdef" {
		t.Fatalf("underlying writer got %q, want %q (suffix silently dropped)", sb.String(), "abcdef")
	}
}

// TestCrashPlan: the crash point is terminal — calls before it pass,
// every call from it on reports crashed — and an unarmed plan only
// counts.
func TestCrashPlan(t *testing.T) {
	plan := NewCrashPlan(3)
	want := []bool{false, false, true, true, true}
	for i, w := range want {
		if got := plan.Crashed(); got != w {
			t.Fatalf("call %d: Crashed() = %v, want %v", i+1, got, w)
		}
	}
	if plan.Calls() != 5 {
		t.Fatalf("Calls() = %d, want 5", plan.Calls())
	}
	sizing := NewCrashPlan(0)
	for i := 0; i < 4; i++ {
		if sizing.Crashed() {
			t.Fatal("unarmed plan must never crash")
		}
	}
	if sizing.Calls() != 4 {
		t.Fatalf("unarmed Calls() = %d, want 4", sizing.Calls())
	}
}

// TestWorkerDecisionIsPerKey: the worker fault is a pure function of
// (seed, key) — the same key always gets the same verdict regardless of
// invocation order, and prob=1 / prob-threshold extremes behave sanely.
func TestWorkerDecisionIsPerKey(t *testing.T) {
	ok := func(context.Context) (any, uint64, error) { return "v", 1, nil }
	spec := Spec{Target: TargetWorker, Prob: 0.5, Seed: 9}
	keys := []string{"gtc/fast", "cam/fast", "gts/slow", "flash/fast", "a", "b", "c", "d"}
	verdict := map[string]bool{}
	for _, k := range keys {
		_, _, err := Worker(spec, k, ok)(context.Background())
		verdict[k] = err != nil
	}
	// Re-wrapping must reproduce the identical verdicts (fresh decorator
	// instances, any order).
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		_, _, err := Worker(spec, k, ok)(context.Background())
		if (err != nil) != verdict[k] {
			t.Fatalf("key %q verdict changed across wrappings", k)
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("key %q err = %v, want ErrInjected", k, err)
		}
	}
	var failed int
	for _, v := range verdict {
		if v {
			failed++
		}
	}
	if failed == 0 || failed == len(keys) {
		t.Fatalf("prob=0.5 failed %d/%d keys — hash looks degenerate", failed, len(keys))
	}
}

func TestWorkerEveryOneFailsAll(t *testing.T) {
	spec := Spec{Target: TargetWorker, Every: 1, Seed: 7}
	fn := Worker(spec, "any/key", func(context.Context) (any, uint64, error) { return nil, 0, nil })
	if _, _, err := fn(context.Background()); !errors.Is(err, ErrInjected) {
		t.Fatalf("every=1 worker err = %v, want ErrInjected", err)
	}
}

func TestWorkerPanicMode(t *testing.T) {
	spec := Spec{Target: TargetWorker, Every: 1, Seed: 7, Mode: ModePanic}
	fn := Worker(spec, "k", func(context.Context) (any, uint64, error) { return nil, 0, nil })
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic mode must panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrInjected) {
			t.Fatalf("panic value = %v, want an ErrInjected error", v)
		}
	}()
	fn(context.Background())
}

func TestWorkerIgnoresOtherTargets(t *testing.T) {
	var fn runner.Func = func(context.Context) (any, uint64, error) { return "v", 0, nil }
	wrapped := Worker(Spec{Target: TargetSink, Every: 1}, "k", fn)
	if v, _, err := wrapped(context.Background()); err != nil || v != "v" {
		t.Fatalf("non-worker spec must leave the run untouched: v=%v err=%v", v, err)
	}
}

func TestRate(t *testing.T) {
	if r := (Spec{Every: 4}).Rate(); r != 0.25 {
		t.Errorf("every=4 rate = %g", r)
	}
	if r := (Spec{Prob: 0.1}).Rate(); r != 0.1 {
		t.Errorf("prob rate = %g", r)
	}
	if r := (Spec{}).Rate(); r != 0 {
		t.Errorf("zero-spec rate = %g", r)
	}
}
