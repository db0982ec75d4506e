package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseFaultSpec hardens the -fault and JobSpec.Fault intake: Parse
// never panics, and every spec it accepts renders to a canonical String
// that parses back to the same spec (run caches and degraded reports key
// on that form).
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range jobSpecField(f, "fault") {
		f.Add(s)
	}
	// The Makefile's chaos spec, the README's examples, and one per
	// target and mode.
	for _, s := range []string{
		"sink:every=3,seed=7", "sink:every=50,seed=7", "worker:prob=0.5,seed=9",
		"access:every=50,seed=7", "perf:every=5,seed=7", "worker:every=1,mode=panic",
		"writer:prob=0.25,mode=short", "writer:every=2,seed=0,mode=torn", "sink:prob=1,mode=error",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(spec.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v whose String %q does not parse: %v", text, spec, spec.String(), err)
		}
		if back != spec {
			t.Fatalf("%q: round trip through %q gave %+v, want %+v", text, spec.String(), back, spec)
		}
	})
}

// jobSpecField returns the named string field of every committed
// jobs-API spec fixture, so the corpus starts from the specs the API pins.
func jobSpecField(f *testing.F, field string) []string {
	paths, err := filepath.Glob("../experiments/testdata/jobspec_v*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("job-spec fixtures: %d found, err %v", len(paths), err)
	}
	var out []string
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var spec map[string]any
		if err := json.Unmarshal(raw, &spec); err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		if s, ok := spec[field].(string); ok {
			out = append(out, s)
		}
	}
	return out
}
