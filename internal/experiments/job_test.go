package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateJobSpecGolden = flag.Bool("update", false, "rewrite testdata/jobspec_normalized.golden")

// TestDecodeJobSpecCrossVersion pins the cross-version decoding contract
// journal replay depends on: specs written at schema versions 1, 2 and 3
// all decode and normalize to the same spec, byte-for-byte against the
// committed golden — so a WAL of old records keeps replaying after
// future schema bumps.
func TestDecodeJobSpecCrossVersion(t *testing.T) {
	var first []byte
	for _, version := range []int{1, 2, 3} {
		name := fmt.Sprintf("testdata/jobspec_v%d.json", version)
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		spec, err := DecodeJobSpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s did not decode: %v", name, err)
		}
		if spec.SchemaVersion != version {
			t.Errorf("%s claims schema_version %d, want %d", name, spec.SchemaVersion, version)
		}
		norm := spec.Normalized()
		if err := norm.Validate(); err != nil {
			t.Fatalf("%s normalized spec invalid: %v", name, err)
		}
		got, err := json.MarshalIndent(norm, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Errorf("v%d normalized spec diverges from v1's:\n%s", version, got)
		}
	}
	golden := "testdata/jobspec_normalized.golden"
	if *updateJobSpecGolden {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("normalized spec drifted from golden:\ngot:\n%swant:\n%s", first, want)
	}
}

func TestJobSpecNormalizeValidateRoundTrip(t *testing.T) {
	spec := JobSpec{Scale: 0.25, Iterations: 5, Apps: []string{"cam"}, Exhibits: []string{"table5"}}
	norm := spec.Normalized()
	if norm.SchemaVersion != SchemaVersion {
		t.Errorf("Normalized schema_version = %d", norm.SchemaVersion)
	}
	if err := norm.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	// Zero values normalize to the calibrated defaults.
	def := JobSpec{}.Normalized()
	if def.Scale != 1.0 || def.Iterations != 10 {
		t.Errorf("defaults = scale %v, iterations %d", def.Scale, def.Iterations)
	}

	decoded, err := DecodeJobSpec(strings.NewReader(
		`{"schema_version":1,"scale":0.25,"iterations":5,"apps":["cam"],"exhibits":["table5"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Scale != spec.Scale || decoded.Apps[0] != "cam" {
		t.Errorf("decoded = %+v", decoded)
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"bogus_field":1}`)); err == nil {
		t.Error("unknown field must be rejected")
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"schema_version":99}`)); err == nil {
		t.Error("future schema version must be rejected")
	}
}

func TestJobSpecRunCacheKeyPartitions(t *testing.T) {
	healthy := JobSpec{}
	if healthy.RunCacheKey() != "healthy" {
		t.Errorf("no-fault key = %q", healthy.RunCacheKey())
	}
	a := JobSpec{Fault: "sink:every=3,seed=7"}
	b := JobSpec{Fault: "sink:seed=7,every=3"}
	if a.RunCacheKey() != b.RunCacheKey() {
		t.Errorf("equivalent fault spellings partition differently: %q vs %q",
			a.RunCacheKey(), b.RunCacheKey())
	}
	if a.RunCacheKey() == healthy.RunCacheKey() {
		t.Error("faulted spec shares the healthy partition")
	}
}

// TestJobSpecValidateSizeBounds: scale and iterations go through the
// shared apps bounds, so an oversized or non-finite scale is refused
// instead of running a tiny app.
func TestJobSpecValidateSizeBounds(t *testing.T) {
	for _, spec := range []JobSpec{
		{Scale: math.NaN()},
		{Scale: math.Inf(1)},
		{Scale: math.Inf(-1)},
		{Scale: 1e308},
		{Scale: 64.5},
		{Iterations: 1001},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(scale %v, iterations %d) accepted", spec.Scale, spec.Iterations)
		}
	}
	if err := (JobSpec{Scale: 64, Iterations: 1000}).Validate(); err != nil {
		t.Errorf("Validate at the bounds: %v", err)
	}
	if _, err := DecodeJobSpec(strings.NewReader(`{"scale":1e308}`)); err == nil {
		t.Error(`DecodeJobSpec({"scale":1e308}) accepted`)
	}
}
