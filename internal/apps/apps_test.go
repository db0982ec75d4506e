package apps

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nvscavenger/internal/memtrace"
)

// fakeApp is a controllable App for framework tests.
type fakeApp struct {
	name                string
	setupErr, stepErr   error
	postErr, checkErr   error
	setupCalls          int
	stepCalls, stepIter []int
	postCalls           int
	checkCalls          int
	observedIters       []int
}

func (f *fakeApp) Name() string        { return f.name }
func (f *fakeApp) Description() string { return "fake app for tests" }

func (f *fakeApp) Setup(tr *memtrace.Tracer) error {
	f.setupCalls++
	f.observedIters = append(f.observedIters, tr.Iteration())
	return f.setupErr
}

func (f *fakeApp) Step(tr *memtrace.Tracer, iter int) error {
	f.stepCalls = append(f.stepCalls, iter)
	f.observedIters = append(f.observedIters, tr.Iteration())
	return f.stepErr
}

func (f *fakeApp) Post(tr *memtrace.Tracer) error {
	f.postCalls++
	f.observedIters = append(f.observedIters, tr.Iteration())
	return f.postErr
}

func (f *fakeApp) Check() error {
	f.checkCalls++
	return f.checkErr
}

func newTracer() *memtrace.Tracer { return memtrace.New(memtrace.Config{}) }

func TestRunPhaseProtocol(t *testing.T) {
	app := &fakeApp{name: "fake"}
	if err := Run(app, newTracer(), 3); err != nil {
		t.Fatal(err)
	}
	if app.setupCalls != 1 || app.postCalls != 1 || app.checkCalls != 1 {
		t.Fatalf("phase calls = %d/%d/%d", app.setupCalls, app.postCalls, app.checkCalls)
	}
	if len(app.stepCalls) != 3 || app.stepCalls[0] != 1 || app.stepCalls[2] != 3 {
		t.Fatalf("step iterations = %v, want [1 2 3]", app.stepCalls)
	}
	// Setup observes iteration 0; steps observe 1..3; post observes 0.
	want := []int{0, 1, 2, 3, 0}
	for i, w := range want {
		if app.observedIters[i] != w {
			t.Fatalf("observed tracer iterations = %v, want %v", app.observedIters, want)
		}
	}
}

func TestRunRejectsZeroIterations(t *testing.T) {
	if err := Run(&fakeApp{name: "x"}, newTracer(), 0); err == nil {
		t.Fatal("zero iterations must error")
	}
}

func TestRunPropagatesPhaseErrors(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		app  *fakeApp
		want string
	}{
		{"setup", &fakeApp{name: "a", setupErr: boom}, "setup"},
		{"step", &fakeApp{name: "a", stepErr: boom}, "step"},
		{"post", &fakeApp{name: "a", postErr: boom}, "post"},
		{"check", &fakeApp{name: "a", checkErr: boom}, "boom"},
	}
	for _, tc := range cases {
		err := Run(tc.app, newTracer(), 2)
		if err == nil {
			t.Errorf("%s: error not propagated", tc.name)
			continue
		}
		if !errors.Is(err, boom) && !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: error chain broken: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the phase", tc.name, err)
		}
	}
}

func TestRunStopsAtFirstStepError(t *testing.T) {
	app := &fakeApp{name: "a", stepErr: errors.New("boom")}
	_ = Run(app, newTracer(), 5)
	if len(app.stepCalls) != 1 {
		t.Fatalf("run continued after step failure: %v", app.stepCalls)
	}
	if app.postCalls != 0 || app.checkCalls != 0 {
		t.Fatal("later phases must not run after a step failure")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	// The production apps register via init() in their own packages, which
	// this test package does not import; register a scoped factory here.
	Register("test-only-app", func(scale float64) App { return &fakeApp{name: "test-only-app"} })
	defer delete(registry, "test-only-app")

	app, err := New("test-only-app", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if app.Name() != "test-only-app" {
		t.Fatalf("name = %q", app.Name())
	}
	if len(Names()) != len(names)+1 {
		t.Fatal("Names should include the new registration")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("definitely-not-registered", 1); err == nil {
		t.Fatal("unknown app must error")
	}
	Register("scale-check-app", func(scale float64) App { return &fakeApp{name: "s"} })
	defer delete(registry, "scale-check-app")
	if _, err := New("scale-check-app", 0); err == nil {
		t.Fatal("non-positive scale must error")
	}
	if _, err := New("scale-check-app", -1); err == nil {
		t.Fatal("negative scale must error")
	}
}

// TestSizeBounds: a scale that is not finite or lies above MaxScale, and an
// iteration count above MaxIterations, are refused before any app is built
// or run; the bounds themselves are accepted.
func TestSizeBounds(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, MaxScale + 0.5} {
		if err := CheckScale(scale); err == nil {
			t.Errorf("CheckScale(%v) accepted", scale)
		}
	}
	for _, scale := range []float64{0.01, 1, MaxScale} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("CheckScale(%v): %v", scale, err)
		}
	}
	if err := CheckIterations(MaxIterations); err != nil {
		t.Errorf("CheckIterations(%d): %v", MaxIterations, err)
	}
	if err := CheckIterations(MaxIterations + 1); err == nil {
		t.Errorf("CheckIterations(%d) accepted", MaxIterations+1)
	}

	Register("size-check-app", func(scale float64) App { return &fakeApp{name: "s"} })
	defer delete(registry, "size-check-app")
	for _, scale := range []float64{math.NaN(), math.Inf(1), 1e308} {
		if _, err := New("size-check-app", scale); err == nil {
			t.Errorf("New at scale %v must error", scale)
		}
	}
	app := &fakeApp{name: "r"}
	if err := Run(app, newTracer(), MaxIterations+1); err == nil {
		t.Error("Run beyond MaxIterations must error")
	}
	if app.setupCalls != 0 {
		t.Errorf("rejected run called Setup %d times", app.setupCalls)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	Register("dup-app", func(scale float64) App { return &fakeApp{name: "d"} })
	defer delete(registry, "dup-app")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register("dup-app", func(scale float64) App { return &fakeApp{name: "d"} })
}

func TestNamesSorted(t *testing.T) {
	Register("zz-app", func(scale float64) App { return &fakeApp{name: "z"} })
	Register("aa-app", func(scale float64) App { return &fakeApp{name: "a"} })
	defer delete(registry, "zz-app")
	defer delete(registry, "aa-app")
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

type inputApp struct{ fakeApp }

func (*inputApp) Input() string { return "grid 60x60x60" }

func TestInputOf(t *testing.T) {
	if got := InputOf(&fakeApp{name: "plain"}); got != "default" {
		t.Fatalf("InputOf without describer = %q", got)
	}
	if got := InputOf(&inputApp{}); got != "grid 60x60x60" {
		t.Fatalf("InputOf = %q", got)
	}
}
