// Package apps defines the mini-application framework of the reproduction.
//
// The paper instruments four production codes — Nek5000, CAM, GTC and S3D —
// none of which can be rebuilt here (Fortran/MPI code bases with restricted
// inputs, instrumented natively with PIN).  Each is replaced by a
// single-task Go mini-app that executes the same *kinds* of numerical
// kernels through the traced-memory API, so that the statistical structure
// of the access stream (per-object read/write ratios, reference rates,
// object sizes, phase behaviour across timesteps) reproduces what the paper
// reports for the original code.  See DESIGN.md for the calibration targets
// and internal/apps/<name> for each model's construction.
//
// All apps follow the three-phase structure of §VI: a pre-computing phase
// (Setup, iteration 0), a main computation loop (Step, iterations 1..N),
// and a post-processing phase (Post, charged to iteration 0 again).
package apps

import (
	"context"
	"fmt"
	"math"
	"sort"

	"nvscavenger/internal/memtrace"
)

// App is one instrumented mini-application.
type App interface {
	// Name returns the identifier used in reports ("nek5000", "cam", ...).
	Name() string
	// Description is a one-line summary for report headers.
	Description() string
	// Setup performs the pre-computing phase: allocation, input parsing,
	// initialization.  Called once with the tracer in iteration 0.
	Setup(tr *memtrace.Tracer) error
	// Step runs one timestep of the main computation loop.  iter is
	// 1-based.
	Step(tr *memtrace.Tracer, iter int) error
	// Post performs the post-processing phase (result aggregation/output).
	Post(tr *memtrace.Tracer) error
	// Check validates numerical results after a run, guarding against the
	// mini-app degenerating into a non-computation.
	Check() error
}

// Run drives an app through the paper's phase protocol for the given number
// of main-loop iterations and closes the tracer.
func Run(app App, tr *memtrace.Tracer, iterations int) error {
	return RunContext(context.Background(), app, tr, iterations)
}

// RunContext is Run with cooperative cancellation: the context is checked
// before the pre-computing phase and between main-loop iterations, so a
// cancelled sweep stops at the next timestep boundary instead of running
// the app to completion.
func RunContext(ctx context.Context, app App, tr *memtrace.Tracer, iterations int) error {
	if iterations < 1 {
		return fmt.Errorf("apps: need at least 1 iteration, got %d", iterations)
	}
	if err := CheckIterations(iterations); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := app.Setup(tr); err != nil {
		return fmt.Errorf("apps: %s setup: %w", app.Name(), err)
	}
	for i := 1; i <= iterations; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr.BeginIteration()
		if err := app.Step(tr, i); err != nil {
			return fmt.Errorf("apps: %s step %d: %w", app.Name(), i, err)
		}
		tr.EndIteration()
	}
	tr.PostPhase()
	if err := app.Post(tr); err != nil {
		return fmt.Errorf("apps: %s post: %w", app.Name(), err)
	}
	if err := tr.Close(); err != nil {
		return fmt.Errorf("apps: %s close: %w", app.Name(), err)
	}
	return app.Check()
}

// InputDescriber is an optional App extension reporting the input problem
// definition, Table I's "Input Problem Size" column.
type InputDescriber interface {
	Input() string
}

// InputOf returns the app's input description, or a placeholder.
func InputOf(app App) string {
	if d, ok := app.(InputDescriber); ok {
		return d.Input()
	}
	return "default"
}

// MaxScale and MaxIterations bound a run's size.  Resident memory grows
// linearly with scale: the heaviest app, nek5000, holds about 5 MB plus
// 13 MB per unit of scale (18, 33 and 58 MB at scales 1, 2 and 4), so
// scale 64 stays under 1 GB for one run.  An iteration adds a few counters
// per object and no resident data; the cap of 1000 is a hundred times the
// paper's ten-iteration collection window.
const (
	MaxScale      = 64
	MaxIterations = 1000
)

// CheckScale rejects a scale no run should start with: NaN, an infinity,
// or a value above MaxScale.  Apps size their arrays with int(base*scale),
// which overflows for a huge scale and silently yields a tiny problem, so
// the bound is checked before any app is built.  Non-positive scales are
// left to the caller, which either rejects them or reads them as "default".
func CheckScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("apps: scale %v is not a finite number", scale)
	}
	if scale > MaxScale {
		return fmt.Errorf("apps: scale %g exceeds the maximum of %d", scale, MaxScale)
	}
	return nil
}

// CheckIterations rejects an iteration count above MaxIterations.
func CheckIterations(iterations int) error {
	if iterations > MaxIterations {
		return fmt.Errorf("apps: %d iterations exceed the maximum of %d", iterations, MaxIterations)
	}
	return nil
}

// Factory creates a fresh app instance.  Scale selects the problem size:
// 1.0 is the calibrated default used by the experiment harness; smaller
// values shrink footprints and run time proportionally (tests use ~0.25).
type Factory func(scale float64) App

var registry = map[string]Factory{}

// Register installs a factory under the app's canonical name.  Called from
// the app packages' init functions.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("apps: duplicate registration of %q", name)) //nvlint:ignore errcontract init-time registration bug; unreachable after package init
	}
	registry[name] = f
}

// New instantiates a registered app.
func New(name string, scale float64) (App, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown app %q (have %v)", name, Names())
	}
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("apps: non-positive scale %v", scale)
	}
	return f(scale), nil
}

// Names lists the registered apps in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
