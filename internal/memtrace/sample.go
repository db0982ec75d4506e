package memtrace

// Sampled tracing (§III-D revisited).
//
// The paper rejects instruction sampling for NV-SCAVENGER because "sampling
// can lead to the loss of access information for many memory objects".  This
// file makes that loss a measured quantity instead of a verdict: the tracer
// can observe a seeded, deterministic subset of the reference stream and an
// Estimator rescales the sampled per-object counters into unbiased estimates
// of the true values — the PerfectProfiler-vs-sampled-profiler relative-error
// methodology of felixge/alloc-prof-sim, pushed into the tracer itself.
//
// Three selection disciplines are provided:
//
//   - SamplePeriodic: every Rate-th reference, counted down per tracer.
//     Cheap and deterministic, but phase-locks with strided loops.
//   - SampleBernoulli: each reference is observed independently with
//     probability 1/Rate, drawn from a seeded xorshift64* PRNG.  No phase
//     artifacts; observation counts are binomial.
//   - SampleBytes: heap-sampler-style byte-threshold selection — a
//     reference is observed whenever the accumulated accessed bytes cross
//     a randomized threshold with mean Rate bytes (uniform jitter in
//     [1, 2*Rate), seeded).  Large objects are found quickly even at
//     aggressive rates; the observation weight is Rate bytes.
//
// Whatever the discipline, instructions retire for every reference and the
// performance-event gap accounting stays exact: a sampled-out reference is
// retired-but-unobserved, so it accumulates into the gap of the next
// observed event (sum of gaps + observed events + the pending tail ==
// retired instructions at any rate).
import (
	"fmt"
	"strconv"
	"strings"
)

// SampleMode selects the reference-selection discipline of a sampled run.
type SampleMode uint8

const (
	// SampleOff observes every reference (the paper's choice).
	SampleOff SampleMode = iota
	// SamplePeriodic observes every Rate-th reference (countdown gate).
	SamplePeriodic
	// SampleBernoulli observes each reference with probability 1/Rate.
	SampleBernoulli
	// SampleBytes observes a reference each time the accumulated accessed
	// bytes cross a randomized threshold with mean Rate bytes.
	SampleBytes
)

// String names the mode; it is the canonical spec vocabulary.
func (m SampleMode) String() string {
	switch m {
	case SamplePeriodic:
		return "period"
	case SampleBernoulli:
		return "bernoulli"
	case SampleBytes:
		return "bytes"
	}
	return "off"
}

// ParseSampleMode inverts SampleMode.String.
func ParseSampleMode(s string) (SampleMode, error) {
	switch s {
	case "", "off":
		return SampleOff, nil
	case "period", "periodic":
		return SamplePeriodic, nil
	case "bernoulli":
		return SampleBernoulli, nil
	case "bytes":
		return SampleBytes, nil
	}
	return SampleOff, fmt.Errorf("memtrace: unknown sample mode %q (off, period, bernoulli or bytes)", s)
}

// SampleSpec is the serializable identity of one sampled-tracing
// configuration: the selection discipline, its rate and the PRNG seed.
// The zero value is full instrumentation.
type SampleSpec struct {
	Mode SampleMode
	// Rate is the sampling period (SamplePeriodic: every Rate-th
	// reference), the inverse probability (SampleBernoulli: observe with
	// probability 1/Rate), or the mean byte threshold (SampleBytes: one
	// observation per Rate accessed bytes).  Rates <= 1 disable sampling.
	Rate uint64
	// Seed seeds the xorshift64* PRNG of the randomized modes.  Seed 0 is
	// a valid (fixed) seed; two runs with equal specs are byte-identical.
	Seed uint64
}

// Enabled reports whether the spec actually gates observation.
func (s SampleSpec) Enabled() bool { return s.Mode != SampleOff && s.Rate > 1 }

// String renders the canonical spec form, e.g. "bernoulli:rate=64,seed=7";
// a disabled spec renders as "off".  The form round-trips through
// ParseSampleSpec and keys run caches, so the parameter order is fixed.
func (s SampleSpec) String() string {
	if !s.Enabled() {
		return "off"
	}
	out := s.Mode.String() + ":rate=" + strconv.FormatUint(s.Rate, 10)
	if s.Seed != 0 {
		out += ",seed=" + strconv.FormatUint(s.Seed, 10)
	}
	return out
}

// ParseSampleSpec reads "mode:rate=N[,seed=S]" (the faults.Parse grammar
// family).  "" and "off" return the disabled spec.
func ParseSampleSpec(text string) (SampleSpec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "off" {
		return SampleSpec{}, nil
	}
	modeStr, params, _ := strings.Cut(text, ":")
	mode, err := ParseSampleMode(modeStr)
	if err != nil {
		return SampleSpec{}, err
	}
	if mode == SampleOff {
		return SampleSpec{}, nil
	}
	spec := SampleSpec{Mode: mode}
	if params == "" {
		return SampleSpec{}, fmt.Errorf("memtrace: sample spec %q needs rate=N", text)
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return SampleSpec{}, fmt.Errorf("memtrace: malformed sample parameter %q in %q", kv, text)
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return SampleSpec{}, fmt.Errorf("memtrace: sample parameter %s=%q is not a number", key, val)
		}
		switch key {
		case "rate":
			spec.Rate = n
		case "seed":
			spec.Seed = n
		default:
			return SampleSpec{}, fmt.Errorf("memtrace: unknown sample parameter %q in %q (rate, seed)", key, text)
		}
	}
	if spec.Rate <= 1 {
		return SampleSpec{}, fmt.Errorf("memtrace: sample spec %q needs rate > 1", text)
	}
	return spec, nil
}

// xorshift64s is the sampling PRNG: xorshift64* (Marsaglia 2003, Vigna's
// star variant).  It is seeded per SampleSpec.Seed and entirely local to
// one Tracer, so sampled runs are deterministic across runs, platforms and
// -jobs counts — the contract nvlint's determinism pass enforces for this
// package (see internal/lint/determinism_allow.txt).
type xorshift64s struct{ state uint64 }

// seedMix is splitmix64's golden-gamma increment; it turns seed 0 (and any
// small seed) into a well-mixed non-zero xorshift state.
const seedMix = 0x9e3779b97f4a7c15

func newXorshift64s(seed uint64) xorshift64s {
	s := seed + seedMix
	// One splitmix64 round decorrelates consecutive seeds.
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	if s == 0 {
		s = seedMix
	}
	return xorshift64s{state: s}
}

func (x *xorshift64s) next() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545f4914f6cdd1d
}

// sampler is the per-tracer gate state.
type sampler struct {
	spec SampleSpec
	rng  xorshift64s
	// countdown is the number of references left until the next periodic
	// observation (SamplePeriodic); it restarts at Rate on each one.
	countdown uint64
	// cut is the Bernoulli acceptance bound: observe when next() < cut.
	cut uint64
	// byteTick accumulates accessed bytes toward byteNext (SampleBytes).
	byteTick uint64
	// byteNext is the current randomized threshold.
	byteNext uint64
}

func newSampler(spec SampleSpec) sampler {
	s := sampler{spec: spec, rng: newXorshift64s(spec.Seed)}
	if !spec.Enabled() {
		return s
	}
	switch spec.Mode {
	case SamplePeriodic:
		s.countdown = spec.Rate
	case SampleBernoulli:
		s.cut = ^uint64(0)/spec.Rate + 1
	case SampleBytes:
		s.byteNext = s.drawThreshold()
	}
	return s
}

// drawThreshold picks the next byte threshold uniformly in [1, 2*Rate), so
// thresholds average Rate bytes without the phase lock a fixed threshold
// would have (the heap-sampler trick, with uniform jitter instead of an
// exponential draw to stay in integer arithmetic).
func (s *sampler) drawThreshold() uint64 {
	return 1 + s.rng.next()%(2*s.spec.Rate-1)
}

// observe decides whether one reference of the given size is observed.
// The periodic gate observes the Rate-th, 2*Rate-th, ... reference.
//
//nvlint:hot
func (s *sampler) observe(size uint8) bool {
	switch s.spec.Mode {
	case SamplePeriodic:
		s.countdown--
		if s.countdown != 0 {
			return false
		}
		s.countdown = s.spec.Rate
		return true
	case SampleBernoulli:
		return s.rng.next() < s.cut
	case SampleBytes:
		s.byteTick += uint64(size)
		if s.byteTick < s.byteNext {
			return false
		}
		s.byteTick -= s.byteNext
		s.byteNext = s.drawThreshold()
		// An access larger than several thresholds still yields one
		// observation; cap the carry so the next draw stays a draw.
		if s.byteTick >= s.byteNext {
			s.byteTick = s.byteNext - 1
		}
		return true
	}
	return true
}

// Estimator rescales the sampled per-object observations of a Tracer into
// estimates of the true (full-instrumentation) values.  For the uniform
// disciplines each observation stands for Rate references; for byte
// sampling each observation stands for Rate bytes, converted to references
// through the object's mean sampled access size.  Ratios (read/write,
// stack ratio) are left to the caller: uniform scaling cancels in them.
type Estimator struct {
	spec SampleSpec
	// bytesPerRef is the mean sampled access size per object (SampleBytes
	// runs only; nil otherwise).
	bytesPerRef map[ObjectID]float64
}

// Estimator returns the estimator matching the tracer's sampling
// configuration.  Call it after the run; for full runs every factor is 1,
// so estimator-scaled analyses degrade to the exact ones.
func (t *Tracer) Estimator() Estimator {
	e := Estimator{spec: t.sampler.spec}
	if t.sampler.spec.Mode == SampleBytes && t.sampler.spec.Enabled() {
		e.bytesPerRef = map[ObjectID]float64{}
		for _, o := range t.reg.allObjects() {
			if refs := o.Total().Refs(); refs > 0 {
				e.bytesPerRef[o.ID] = float64(o.sampledBytes) / float64(refs)
			}
		}
	}
	return e
}

// Spec returns the sampling configuration the estimator corrects for.
func (e Estimator) Spec() SampleSpec { return e.spec }

// Factor returns the multiplier from observed to estimated true reference
// counts for one object.  Objects never observed in a byte-sampled run
// have no size estimate and return 0 (they are "lost", §III-D).
func (e Estimator) Factor(o *Object) float64 {
	if !e.spec.Enabled() {
		return 1
	}
	switch e.spec.Mode {
	case SamplePeriodic, SampleBernoulli:
		return float64(e.spec.Rate)
	case SampleBytes:
		avg := e.bytesPerRef[o.ID]
		if avg == 0 {
			return 0
		}
		return float64(e.spec.Rate) / avg
	}
	return 1
}

// EstStats is an estimated reference breakdown; counts are fractional
// because they are expectations, not observations.
type EstStats struct {
	Reads  float64
	Writes float64
}

// Refs returns estimated total references.
func (s EstStats) Refs() float64 { return s.Reads + s.Writes }

// Total estimates the object's all-iterations counters.
func (e Estimator) Total(o *Object) EstStats {
	f := e.Factor(o)
	t := o.Total()
	return EstStats{Reads: float64(t.Reads) * f, Writes: float64(t.Writes) * f}
}

// Loop estimates the object's main-loop counters (iterations >= 1), the
// denominators of the paper's per-object metrics.
func (e Estimator) Loop(o *Object) EstStats {
	f := e.Factor(o)
	s := o.LoopStats()
	return EstStats{Reads: float64(s.Reads) * f, Writes: float64(s.Writes) * f}
}

// IterSeries estimates the object's per-iteration reference series
// (index 0 is the pre/post phase), the input of the Figure 8-11 variance
// analyses.
func (e Estimator) IterSeries(o *Object) []float64 {
	f := e.Factor(o)
	out := make([]float64, o.Iterations())
	for i := range out {
		out[i] = float64(o.Iter(i).Refs()) * f
	}
	return out
}
