// Package faults is the deterministic fault injector for chaos runs: it
// wraps the simulator's existing contracts — trace sinks, writers and run
// functions — with decorators that fail every Nth call or with a seeded
// probability.
//
// Determinism is the design constraint.  The paper's experiments are pinned
// byte-for-byte by golden reports, and the whole point of injecting faults
// into them is to check that *degraded* output is just as reproducible: the
// same fault spec must fail the same flushes and the same apps whether the
// sweep runs at jobs=1 or jobs=4.  So nothing here consults the wall clock
// or a global random source.  Count-based injection keeps a per-wrapped-
// instance call counter; probabilistic injection derives an xorshift stream
// from the configured seed (and, for workers, from the run key), so every
// decision is a pure function of configuration and per-instance call
// sequence — never of goroutine scheduling.
package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"nvscavenger/internal/runner"
	"nvscavenger/internal/trace"
)

// Fault targets: which layer of the stack a Spec attacks.
const (
	// TargetSink attacks the post-cache transaction sinks (TxSink).
	TargetSink = "sink"
	// TargetAccess attacks the raw access stream (Sink / access taps).
	TargetAccess = "access"
	// TargetPerf attacks the performance-event stream (PerfSink).
	TargetPerf = "perf"
	// TargetWriter attacks io.Writer trace outputs.
	TargetWriter = "writer"
	// TargetWorker attacks whole runs (runner.Func): the run returns an
	// error, or panics when the spec's mode is "panic".
	TargetWorker = "worker"
)

var validTargets = map[string]bool{
	TargetSink:   true,
	TargetAccess: true,
	TargetPerf:   true,
	TargetWriter: true,
	TargetWorker: true,
}

// ErrInjected is the base error every injected fault wraps; test with
// errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// ErrNoSpace is the disk-full shape of a short write: the error a
// mode=short writer fault wraps alongside ErrInjected, mirroring ENOSPC
// so callers can exercise their out-of-space handling.
var ErrNoSpace = errors.New("no space left on device")

// Fault modes: how a tripped fault manifests.  The zero value ("",
// spelled mode=error in specs) returns an injected error.
const (
	// ModePanic makes worker faults panic instead of returning an error.
	ModePanic = "panic"
	// ModeShort makes writer faults write a prefix of the buffer and then
	// fail with an ErrNoSpace-wrapped error — the disk-full shape.
	ModeShort = "short"
	// ModeTorn makes writer faults write a prefix of the buffer and
	// silently drop the rest while reporting full success — the
	// torn-record shape of a crash mid-write, visible only on recovery.
	ModeTorn = "torn"
)

// Spec is a parsed fault specification.  The zero value injects nothing.
type Spec struct {
	// Target names the attacked layer (Target* constants).
	Target string
	// Every trips the fault on every Nth call (1 = every call).
	Every uint64
	// Prob trips the fault on each call with this seeded probability
	// (0 < Prob <= 1).  Exactly one of Every/Prob must be set.
	Prob float64
	// Seed drives the probabilistic stream and the per-key worker
	// decision.  Defaults to 1 so "prob=0.5" alone is valid.
	Seed uint64
	// Mode selects how a tripped fault manifests (Mode* constants);
	// empty is the plain error mode.
	Mode string
}

// Enabled reports whether the spec injects anything.
func (s Spec) Enabled() bool { return s.Target != "" }

// Is reports whether the spec attacks the given target.
func (s Spec) Is(target string) bool { return s.Target == target }

// Parse reads a "target:key=value,key=value" fault specification, e.g.
// "sink:every=50,seed=7" or "worker:prob=0.5,seed=3,mode=panic".  Keys:
// every=N, prob=P, seed=S, mode=error|panic|short|torn.  Exactly one of
// every/prob is required; short and torn are disk-fault shapes and only
// apply to writer targets.
func Parse(text string) (Spec, error) {
	target, params, ok := strings.Cut(text, ":")
	if !ok {
		return Spec{}, fmt.Errorf("faults: spec %q: want target:key=value,...", text)
	}
	target = strings.TrimSpace(target)
	if !validTargets[target] {
		return Spec{}, fmt.Errorf("faults: unknown target %q (want sink, access, perf, writer or worker)", target)
	}
	spec := Spec{Target: target, Seed: 1}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: spec %q: parameter %q is not key=value", text, kv)
		}
		switch key {
		case "every":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return Spec{}, fmt.Errorf("faults: spec %q: every=%q must be a positive integer", text, val)
			}
			spec.Every = n
		case "prob":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return Spec{}, fmt.Errorf("faults: spec %q: prob=%q must be in (0, 1]", text, val)
			}
			spec.Prob = p
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: spec %q: seed=%q must be an integer", text, val)
			}
			spec.Seed = n
		case "mode":
			switch val {
			case "error":
				spec.Mode = "" // canonical: the zero mode is the error mode
			case ModePanic, ModeShort, ModeTorn:
				spec.Mode = val
			default:
				return Spec{}, fmt.Errorf("faults: spec %q: mode=%q must be error, panic, short or torn", text, val)
			}
		default:
			return Spec{}, fmt.Errorf("faults: spec %q: unknown parameter %q", text, key)
		}
	}
	if (spec.Every == 0) == (spec.Prob == 0) {
		return Spec{}, fmt.Errorf("faults: spec %q: exactly one of every=N or prob=P is required", text)
	}
	if (spec.Mode == ModeShort || spec.Mode == ModeTorn) && spec.Target != TargetWriter {
		return Spec{}, fmt.Errorf("faults: spec %q: mode=%s only applies to writer targets", text, spec.Mode)
	}
	return spec, nil
}

// String renders the spec in Parse's format (canonical parameter order).
func (s Spec) String() string {
	if !s.Enabled() {
		return ""
	}
	parts := []string{}
	if s.Every > 0 {
		parts = append(parts, "every="+strconv.FormatUint(s.Every, 10))
	}
	if s.Prob > 0 {
		parts = append(parts, "prob="+strconv.FormatFloat(s.Prob, 'g', -1, 64))
	}
	parts = append(parts, "seed="+strconv.FormatUint(s.Seed, 10))
	if s.Mode != "" {
		parts = append(parts, "mode="+s.Mode)
	}
	sort.Strings(parts)
	return s.Target + ":" + strings.Join(parts, ",")
}

// splitmix64 is the seed-expansion step of the xorshift family: it turns
// correlated seeds (0, 1, 2...) into well-mixed initial states.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector decides, call by call, whether to trip a fault.  Each decorator
// owns a private Injector, so the decision sequence is per-wrapped-instance
// and independent of how runs are scheduled across workers.  Injector is
// not safe for concurrent use; the buffers and stages it decorates are
// already single-goroutine per run.
type Injector struct {
	spec  Spec
	rng   uint64
	calls uint64
}

// NewInjector returns a fresh decision stream for the spec.
func (s Spec) NewInjector() *Injector {
	return &Injector{spec: s, rng: splitmix64(s.Seed)}
}

// next advances the xorshift64 stream.
func (in *Injector) next() uint64 {
	x := in.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	in.rng = x
	return x
}

// Trip records one call and reports whether it must fail, along with the
// 1-based call number (for error messages).
func (in *Injector) Trip() (call uint64, trip bool) {
	in.calls++
	if in.spec.Every > 0 {
		return in.calls, in.calls%in.spec.Every == 0
	}
	// Map the top 53 bits onto [0, 1): the standard uniform-double draw.
	u := float64(in.next()>>11) / float64(1<<53)
	return in.calls, u < in.spec.Prob
}

func (in *Injector) errf(what string) error {
	call, trip := in.Trip()
	if !trip {
		return nil
	}
	return fmt.Errorf("%w: %s %s call %d (%s)", ErrInjected, in.spec.Target, what, call, in.spec)
}

// TxSink wraps next with an injector failing transaction flushes.
func TxSink(spec Spec, next trace.TxSink) trace.TxSink {
	in := spec.NewInjector()
	return trace.TxSinkFunc(func(batch []trace.Transaction) error {
		if err := in.errf("flush"); err != nil {
			return err
		}
		return next.FlushTx(batch)
	})
}

// Sink wraps next with an injector failing access flushes.
func Sink(spec Spec, next trace.Sink) trace.Sink {
	in := spec.NewInjector()
	return trace.SinkFunc(func(batch []trace.Access) error {
		if err := in.errf("flush"); err != nil {
			return err
		}
		return next.Flush(batch)
	})
}

// PerfSink wraps next with an injector failing performance-event flushes.
func PerfSink(spec Spec, next trace.PerfSink) trace.PerfSink {
	in := spec.NewInjector()
	return trace.PerfSinkFunc(func(batch []trace.PerfEvent) error {
		if err := in.errf("flush"); err != nil {
			return err
		}
		return next.FlushEvents(batch)
	})
}

// Writer wraps w with an injector failing writes — the disk-fault path
// for trace.Writer, the served response path and the job journal.  A
// tripped call fails by the spec's mode: the default returns an injected
// error without touching w, mode=short writes a prefix and fails with an
// ErrNoSpace-wrapped error (disk full), and mode=torn writes a prefix,
// silently drops the rest and reports full success — the on-disk shape
// of a crash mid-write, which only recovery can detect.
func Writer(spec Spec, w io.Writer) io.Writer {
	return &faultWriter{in: spec.NewInjector(), w: w}
}

type faultWriter struct {
	in *Injector
	w  io.Writer
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	call, trip := fw.in.Trip()
	if !trip {
		return fw.w.Write(p)
	}
	spec := fw.in.spec
	switch spec.Mode {
	case ModeShort:
		n, err := fw.w.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: writer short write call %d (%s): %w", ErrInjected, call, spec, ErrNoSpace)
	case ModeTorn:
		if _, err := fw.w.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return 0, fmt.Errorf("%w: writer write call %d (%s)", ErrInjected, call, spec)
}

// Worker decorates a runner.Func with a crash fault.  Unlike the flush
// decorators, the decision cannot ride a call counter: runs execute
// concurrently and in scheduling-dependent order, so a shared counter would
// fail *different* runs at jobs=1 vs jobs=4.  Instead the decision is a
// pure hash of (seed, key): every=N fails every Nth key by hash residue,
// prob=P fails the keys whose hash lands below P.  In Panic mode the run
// panics (exercising the engine's recovery path) instead of returning the
// error.
func Worker(spec Spec, key string, fn runner.Func) runner.Func {
	if !spec.Is(TargetWorker) {
		return fn
	}
	h := splitmix64(spec.Seed ^ hashString(key))
	var trip bool
	if spec.Every > 0 {
		trip = h%spec.Every == 0
	} else {
		trip = float64(h>>11)/float64(1<<53) < spec.Prob
	}
	if !trip {
		return fn
	}
	return func(ctx context.Context) (any, uint64, error) {
		err := fmt.Errorf("%w: worker crash for run %s (%s)", ErrInjected, key, spec)
		if spec.Mode == ModePanic {
			panic(err)
		}
		return nil, 0, err
	}
}

// CrashPlan is the crash-point injector for the restart-recovery
// harness: a deterministic kill switch armed at the Nth guarded call.
// Unlike the per-call injectors above, a crash is terminal — every
// guarded call from the crash point on reports crashed, modelling a
// process that dies at one journaled transition and never comes back.
// Safe for concurrent use: the guarded calls come from whatever
// goroutine holds the journal at that moment.
type CrashPlan struct {
	at    uint64
	calls atomic.Uint64
}

// NewCrashPlan arms a crash at the at-th guarded call (1-based); 0
// never crashes but still counts calls, which is how a harness sizes
// its sweep (run once uncrashed, read Calls, then kill at 1..Calls).
func NewCrashPlan(at uint64) *CrashPlan { return &CrashPlan{at: at} }

// Crashed counts one guarded call and reports whether the crash point
// has been reached.
func (c *CrashPlan) Crashed() bool {
	n := c.calls.Add(1)
	return c.at > 0 && n >= c.at
}

// Calls returns how many guarded calls have been counted so far.
func (c *CrashPlan) Calls() uint64 { return c.calls.Load() }

// hashString is FNV-1a, inlined so the package stays free of hash/fnv's
// allocation on every run-key decision.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Rate returns the spec's nominal failure rate — 1/Every or Prob — for
// documentation and sanity checks.
func (s Spec) Rate() float64 {
	switch {
	case s.Every > 0:
		return 1 / float64(s.Every)
	case s.Prob > 0:
		return s.Prob
	}
	return 0
}

// MustParse is Parse for known-good literals (tests, examples).
func MustParse(text string) Spec {
	spec, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return spec
}
