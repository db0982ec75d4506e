package main

import (
	"io"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"nvscavenger/internal/experiments"
	"nvscavenger/internal/memtrace"
)

// runsWorkload is the run and sampled workloads: one unit is a round of
// single instrumented runs, each on a fresh single-app Session with one
// worker, so no parallelism hides the per-reference cost.  The seed
// permutes the app order.
//
// run reads Scale and Iterations and runs Fast of every app, then
// Slow("cam").  memtrace and cachesim do most of its work.
//
// sampled also reads SampleRate and runs Fast of every app under
// bernoulli:rate=SampleRate,seed=<seed>.  Nearly every reference stops at
// the sampler gate, so the app kernel dominates and attribution and
// cachesim barely run: a gain in either should leave it unchanged.
type runsWorkload struct {
	sampled bool
	seed    int64
	pins    *pins
	errw    io.Writer
	order   []runKey
	// observed holds each app's observed reference count from the first
	// checked sampled round; same-seed rounds must repeat it exactly.
	observed map[string]uint64
}

// runKey names one single run.
type runKey struct{ app, mode string }

func (k runKey) String() string { return k.app + "/" + k.mode }

// run executes the run on s.
func (k runKey) run(s *experiments.Session) (*experiments.Run, error) {
	if k.mode == "slow" {
		return s.Slow(k.app)
	}
	return s.Fast(k.app)
}

func newRunsWorkload(sampled bool, seed int64, p *pins, errw io.Writer) *runsWorkload {
	names := slices.Clone(experiments.AppNames)
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	w := &runsWorkload{sampled: sampled, seed: seed, pins: p, errw: errw, observed: map[string]uint64{}}
	for _, name := range names {
		w.order = append(w.order, runKey{name, "fast"})
	}
	if !sampled {
		w.order = append(w.order, runKey{"cam", "slow"})
	}
	return w
}

func (w *runsWorkload) unit(p params, check bool, sp *spans) unitResult {
	var u unitResult
	trace := sp.newTrace()
	root := sp.begin("round", 0, trace)
	var current atomic.Int64
	probe := newRunnerProbe(sp, trace, current.Load)

	start := time.Now()
	for _, k := range w.order {
		id := sp.begin("experiments.Session "+k.String(), root, trace)
		current.Store(id)
		opts := []experiments.Option{
			experiments.WithScale(p.Scale),
			experiments.WithIterations(p.Iterations),
			experiments.WithJobs(1),
			experiments.WithApps(k.app),
			experiments.WithProgress(probe.event),
		}
		if w.sampled {
			opts = append(opts, experiments.WithSample(memtrace.SampleSpec{
				Mode: memtrace.SampleBernoulli, Rate: p.SampleRate, Seed: uint64(w.seed)}))
		}
		s := experiments.NewSession(opts...)
		t := time.Now()
		run, err := k.run(s)
		lat := time.Since(t)
		sp.end(id)
		u.attempted++
		if err != nil {
			u.fail(w.errw, "%s: %v", k, err)
			continue
		}
		u.requests = append(u.requests, lat)
		u.refs += run.Tracer.Sampled + run.Tracer.SampledOut
		if check {
			w.check(&u, k, run)
		}
	}
	u.wall = time.Since(start)
	u.refsWall = u.wall
	sp.end(root)
	if sp != nil {
		_, started, cached, busy := probe.totals()
		addRunnerLayer(&u, started, cached, busy, u.wall)
	}
	return u
}

// check compares one run against the pins: every simulated count of a
// full run, or for a sampled run the true reference count of the full run
// and the exact repeat of the first round's observed count.
func (w *runsWorkload) check(u *unitResult, k runKey, run *experiments.Run) {
	if !w.sampled {
		if got, want := factsOf(run), w.pins.Run.Runs[k.String()]; got != want {
			u.fail(w.errw, "%s: simulated %+v, pinned %+v", k, got, want)
		}
		return
	}
	if got, want := run.Tracer.Sampled+run.Tracer.SampledOut, w.pins.Sampled.Refs[k.app]; got != want {
		u.fail(w.errw, "%s: %d true references, pinned %d", k, got, want)
	}
	if prev, ok := w.observed[k.app]; !ok {
		w.observed[k.app] = run.Tracer.Sampled
	} else if prev != run.Tracer.Sampled {
		u.fail(w.errw, "%s: %d observed references, an earlier round of this seed observed %d", k, run.Tracer.Sampled, prev)
	}
}
