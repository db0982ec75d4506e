package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/core"
	"nvscavenger/internal/faults"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
)

// SchemaVersion is the version of the jobs-API JSON contract: the JobSpec
// and JobResult shapes below, shared verbatim by the nvserved HTTP API and
// the CLI tools' -json outputs.  A decoder rejects payloads claiming a
// newer version than it speaks; version 0 (the field absent) is read as
// the current version so hand-written specs stay terse, and every older
// version is accepted (the contract only grows optional fields within a
// major shape).
//
// Bump it when a field changes meaning or is removed; adding optional
// fields is compatible and does not bump.
//
// Version history:
//
//	1: initial jobs-API contract (PR 6).
//	2: adds the optional "sample" spec (seeded sampled tracing,
//	   mode:rate=N[,seed=S]).  Version-1 payloads decode unchanged.
//	3: adds the optional "shards" count (deterministic intra-run
//	   sharding; the merged result is byte-identical to shards=1).
//	   Version-1 and -2 payloads decode unchanged.
//
// Intra-run sharding has since been removed without a version bump: the
// "shards" field still decodes, 0 and 1 mean what they always meant (one
// stack per run), and larger counts are rejected by Validate, so no
// accepted payload changes meaning.
const SchemaVersion = 3

// Job lifecycle states, the vocabulary of JobResult.State.  A job moves
// queued → running → one of the three terminal states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobSpec is the serializable request for one experiment job — the single
// parameter shape understood by the nvserved jobs API, the report
// generator and the analysis tools.  The zero value of every field selects
// the calibrated default, so `{"exhibits":["table5"]}` is a complete spec.
//
// JSON schema (version 3):
//
//	{
//	  "schema_version": 3,          // optional; 0 means "current"
//	  "scale": 0.25,                // problem scale, default 1.0
//	  "iterations": 10,             // main-loop iterations, default 10
//	  "apps": ["gtc", "cam"],       // app subset, default all registered
//	  "mode": "fast",               // analysis-tool stack mode (fast|slow)
//	  "exhibits": ["table5"],       // exhibit subset, default all
//	  "jobs": 4,                    // worker-pool bound, 0 = GOMAXPROCS
//	  "fault": "sink:every=50,seed=7", // chaos spec, default none
//	  "retries": 2,                 // retired, decoded and echoed only
//	  "sample": "bernoulli:rate=64,seed=7" // sampled tracing, default off (v2)
//	}
type JobSpec struct {
	SchemaVersion int      `json:"schema_version"`
	Scale         float64  `json:"scale,omitempty"`
	Iterations    int      `json:"iterations,omitempty"`
	Apps          []string `json:"apps,omitempty"`
	Mode          string   `json:"mode,omitempty"`
	Exhibits      []string `json:"exhibits,omitempty"`
	Jobs          int      `json:"jobs,omitempty"`
	Fault         string   `json:"fault,omitempty"`
	// Retries is the retired per-run retry count, kept so older payloads,
	// fixtures and journals still decode and echo unchanged.  It configures
	// nothing: a run is deterministic and its faults are seeded, so a
	// re-executed run fails the same way again.  Validate still rejects a
	// negative value.
	Retries int `json:"retries,omitempty"`
	// Sample is a memtrace sample spec ("mode:rate=N[,seed=S]") switching
	// every instrumented run of the job to seeded sampled tracing.  Empty
	// (the default) observes every reference.  Schema version 2.
	Sample string `json:"sample,omitempty"`
	// Shards is the retired intra-run shard count (schema version 3), kept
	// only so older payloads and journals still decode.  Validate accepts
	// 0 and 1, the one-stack-per-run behaviour every run has, and rejects
	// anything larger; Normalized drops the field.
	Shards int `json:"shards,omitempty"`
}

// Normalized returns the spec with defaults made explicit: the schema
// version stamped, scale 1.0 and the 10-iteration collection window filled
// in.  Results echo the normalized spec so a stored JobResult is
// self-describing.
func (s JobSpec) Normalized() JobSpec {
	s.SchemaVersion = SchemaVersion
	if s.Scale <= 0 {
		s.Scale = 1.0
	}
	if s.Iterations <= 0 {
		s.Iterations = 10
	}
	// Canonicalize the sample spec (fixed parameter order, "off" elided)
	// so equal configurations serialize and key identically.
	if spec, err := memtrace.ParseSampleSpec(s.Sample); err == nil {
		if spec.Enabled() {
			s.Sample = spec.String()
		} else {
			s.Sample = ""
		}
	}
	// An empty list selects the same default as an absent one; drop it so
	// the normalized spec survives a JSON round trip (omitempty elides it).
	if len(s.Apps) == 0 {
		s.Apps = nil
	}
	if len(s.Exhibits) == 0 {
		s.Exhibits = nil
	}
	// shards=1 is what every run does; drop it so equal configurations
	// serialize and key identically.
	s.Shards = 0
	return s
}

// Validate checks the spec against this build's schema: a speakable
// version, positive scale/iterations within apps.CheckScale and
// apps.CheckIterations, registered app names, known exhibit
// names, a parsable fault spec and a known stack mode.
func (s JobSpec) Validate() error {
	if s.SchemaVersion < 0 || s.SchemaVersion > SchemaVersion {
		return fmt.Errorf("experiments: unsupported schema_version %d (this build speaks %d)",
			s.SchemaVersion, SchemaVersion)
	}
	if s.Scale < 0 {
		return fmt.Errorf("experiments: scale %g must be positive", s.Scale)
	}
	if err := apps.CheckScale(s.Scale); err != nil {
		return err
	}
	if s.Iterations < 0 {
		return fmt.Errorf("experiments: iterations %d must be positive", s.Iterations)
	}
	if err := apps.CheckIterations(s.Iterations); err != nil {
		return err
	}
	registered := apps.Names()
	for _, name := range s.Apps {
		if !slices.Contains(registered, name) {
			return fmt.Errorf("experiments: unknown app %q (have %s)", name, strings.Join(registered, ", "))
		}
	}
	for _, name := range s.Exhibits {
		if !knownExhibit(name) {
			return fmt.Errorf("experiments: unknown exhibit %q", name)
		}
	}
	switch s.Mode {
	case "", "fast", "slow":
	default:
		return fmt.Errorf("experiments: unknown mode %q (fast or slow)", s.Mode)
	}
	if s.Fault != "" {
		if _, err := faults.Parse(s.Fault); err != nil {
			return err
		}
	}
	if s.Sample != "" {
		if _, err := memtrace.ParseSampleSpec(s.Sample); err != nil {
			return err
		}
	}
	if s.Retries < 0 {
		return fmt.Errorf("experiments: retries %d must be non-negative", s.Retries)
	}
	if s.Shards < 0 {
		return fmt.Errorf("experiments: shards %d must be non-negative", s.Shards)
	}
	if s.Shards > 1 {
		return fmt.Errorf("experiments: shards %d: intra-run sharding was removed; omit the field or set it to 1", s.Shards)
	}
	return nil
}

// SessionOptions translates the spec into the Session option list: the
// exact options the nvreport CLI would assemble from equivalent flags, so
// a job submitted over HTTP configures an identical session.
func (s JobSpec) SessionOptions() ([]Option, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.Normalized()
	opts := []Option{
		WithScale(n.Scale),
		WithIterations(n.Iterations),
		WithJobs(n.Jobs),
	}
	if len(n.Apps) > 0 {
		opts = append(opts, WithApps(n.Apps...))
	}
	if n.Fault != "" {
		spec, err := faults.Parse(n.Fault)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithFaults(spec))
	}
	if n.Sample != "" {
		spec, err := memtrace.ParseSampleSpec(n.Sample)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithSample(spec))
	}
	return opts, nil
}

// RunCacheKey partitions specs into groups that may safely exchange
// memoized runs.  The runner key already carries app, mode, scale and
// iterations, so the only spec field that changes what an identically
// keyed run *produces* is the fault injection; healthy jobs all share one
// partition.  The nvserved daemon keys its shared single-flight caches on
// this.
func (s JobSpec) RunCacheKey() string {
	if s.Fault == "" {
		return "healthy"
	}
	if spec, err := faults.Parse(s.Fault); err == nil {
		return spec.String() // canonical parameter order
	}
	return s.Fault
}

// JobResult is the serializable outcome of one experiment job: the
// response shape of the nvserved jobs API and the envelope of the CLI
// tools' -json outputs.  Which payload fields are set depends on the job:
// report jobs fill Report, single-app analysis jobs fill Analysis, chaos
// jobs annotate RunErrors, failed jobs carry Error.
type JobResult struct {
	SchemaVersion int `json:"schema_version"`
	// ID is the daemon-assigned job identifier (empty for CLI outputs).
	ID string `json:"id,omitempty"`
	// State is one of the State* lifecycle constants.
	State string `json:"state,omitempty"`
	// Spec echoes the normalized spec the job ran with.
	Spec JobSpec `json:"spec"`
	// Report is the rendered exhibit report (report jobs, terminal states).
	Report string `json:"report,omitempty"`
	// Analysis is the per-object analysis snapshot (nvscavenger -json).
	Analysis *core.Snapshot `json:"analysis,omitempty"`
	// RunErrors annotates failed runs of a degraded sweep.
	RunErrors []RunError `json:"run_errors,omitempty"`
	// Error is the job-level failure message (state "failed").
	Error string `json:"error,omitempty"`
	// Metrics optionally embeds an observability snapshot.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// NewJobResult returns a result stamped with the current schema version
// and the normalized spec.
func NewJobResult(spec JobSpec, state string) JobResult {
	return JobResult{SchemaVersion: SchemaVersion, State: state, Spec: spec.Normalized()}
}

// DecodeJobSpec reads one JSON spec and validates it against this build's
// schema.  Unknown fields are rejected so a typo'd parameter fails loudly
// instead of silently running the default experiment.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("experiments: decoding job spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// DecodeJobResult reads one JSON result, rejecting payloads from a newer
// schema than this build speaks.
func DecodeJobResult(r io.Reader) (JobResult, error) {
	var res JobResult
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		return JobResult{}, fmt.Errorf("experiments: decoding job result: %w", err)
	}
	if res.SchemaVersion > SchemaVersion {
		return JobResult{}, fmt.Errorf("experiments: unsupported schema_version %d (this build speaks %d)",
			res.SchemaVersion, SchemaVersion)
	}
	return res, nil
}
