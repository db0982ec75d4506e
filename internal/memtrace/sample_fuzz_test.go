package memtrace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSampleSpec hardens the -sample and JobSpec.Sample intake:
// ParseSampleSpec never panics, and every spec it accepts renders to a
// canonical String that parses back to the same spec (run caches key on
// that form).
func FuzzParseSampleSpec(f *testing.F) {
	for _, s := range jobSpecField(f, "sample") {
		f.Add(s)
	}
	// The README's -sample examples, the other modes, and the Makefile's
	// chaos fault spec as a near-miss of the grammar.
	for _, s := range []string{
		"bernoulli:rate=64,seed=7", "bytes:rate=4096", "period:rate=16",
		"periodic:rate=2,seed=0", "", "sink:every=3,seed=7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSampleSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSampleSpec(spec.String())
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
