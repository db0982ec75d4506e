package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/experiments"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/runner"
)

// expectJSON holds the correctness pins of the timed units, regenerated
// with -pin.
//
//go:embed testdata/expect.json
var expectJSON []byte

// pins are the outputs every timed unit must reproduce, with the sizes
// they were taken at.
type pins struct {
	Report struct {
		Params params `json:"params"`
		SHA256 string `json:"sha256"`
	} `json:"report"`
	Run struct {
		Params params `json:"params"`
		// Runs maps "app/mode" to the run's simulated counts.
		Runs map[string]runFacts `json:"runs"`
	} `json:"run"`
	Sampled struct {
		Params params `json:"params"`
		// Refs is each app's true reference count at these sizes.
		Refs map[string]uint64 `json:"refs"`
	} `json:"sampled"`
	Served struct {
		Params params      `json:"params"`
		Specs  []servedPin `json:"specs"`
	} `json:"served"`
}

// runFacts are the simulated counts of one run; a speed-only change must
// leave every one of them identical.
type runFacts struct {
	Refs         uint64 `json:"refs"`
	L1Misses     uint64 `json:"l1_misses"`
	L2Misses     uint64 `json:"l2_misses"`
	Transactions uint64 `json:"transactions"`
	Footprint    uint64 `json:"footprint"`
}

func factsOf(run *experiments.Run) runFacts {
	f := runFacts{
		Refs:         run.Tracer.Sampled,
		Transactions: uint64(len(run.Transactions)),
		Footprint:    run.Tracer.Footprint(),
	}
	if run.Hierarchy != nil {
		f.L1Misses = run.Hierarchy.L1Stats().Misses
		f.L2Misses = run.Hierarchy.L2Stats().Misses
	}
	return f
}

// servedPin is the digest of one served spec's report, rendered by a
// Session built from the spec's own options.
type servedPin struct {
	Spec   experiments.JobSpec `json:"spec"`
	SHA256 string              `json:"sha256"`
}

// loadPins decodes the embedded pins and checks they were taken at the
// suite's timed sizes.
func loadPins(s suite) (*pins, error) {
	var p pins
	if err := json.Unmarshal(expectJSON, &p); err != nil {
		return nil, fmt.Errorf("decoding testdata/expect.json: %w", err)
	}
	if err := p.matches(s); err != nil {
		return nil, err
	}
	return &p, nil
}

// matches reports an error when the pins were taken at other sizes than
// the suite's timed units.
func (p *pins) matches(s suite) error {
	for name, got := range map[string]params{
		"report": p.Report.Params, "run": p.Run.Params, "sampled": p.Sampled.Params, "served": p.Served.Params,
	} {
		if want := s.units[name].timed; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("pins for %s were taken at %+v, the workload runs %+v: regenerate them with -pin", name, got, want)
		}
	}
	return nil
}

// makePins computes the pins at the suite's timed sizes.
func makePins(s suite) (*pins, error) {
	var p pins

	rp := s.units["report"].timed
	report, err := renderReport(nil, experiments.WithScale(rp.Scale), experiments.WithIterations(rp.Iterations))
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	p.Report.Params, p.Report.SHA256 = rp, digest(report)

	runP := s.units["run"].timed
	p.Run.Params, p.Run.Runs = runP, map[string]runFacts{}
	for _, k := range newRunsWorkload(false, 0, nil, nil).order {
		sess := experiments.NewSession(experiments.WithScale(runP.Scale), experiments.WithIterations(runP.Iterations), experiments.WithJobs(1))
		run, err := k.run(sess)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		p.Run.Runs[k.String()] = factsOf(run)
	}

	sp := s.units["sampled"].timed
	p.Sampled.Params, p.Sampled.Refs = sp, map[string]uint64{}
	for _, name := range experiments.AppNames {
		tr, err := traceApp(name, sp, memtrace.Config{Sample: gateOnly})
		if err != nil {
			return nil, fmt.Errorf("sampled %s: %w", name, err)
		}
		p.Sampled.Refs[name] = tr.Sampled + tr.SampledOut
	}

	servedP := s.units["served"].timed
	p.Served.Params = servedP
	cache := runner.NewCache()
	for _, spec := range servedSpecs(servedP) {
		opts, err := spec.SessionOptions()
		if err != nil {
			return nil, err
		}
		report, err := renderReport(spec.Exhibits, append(opts, experiments.WithRunCache(cache))...)
		if err != nil {
			return nil, fmt.Errorf("served spec %+v: %w", spec, err)
		}
		p.Served.Specs = append(p.Served.Specs, servedPin{Spec: spec, SHA256: digest(report)})
	}
	return &p, nil
}

// writePins writes p as indented JSON to path.
func writePins(path string, p *pins) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceApp runs one app at size p under a tracer built from cfg.
func traceApp(name string, p params, cfg memtrace.Config) (*memtrace.Tracer, error) {
	app, err := apps.New(name, p.Scale)
	if err != nil {
		return nil, err
	}
	tr := memtrace.New(cfg)
	return tr, apps.RunContext(context.Background(), app, tr, p.Iterations)
}
