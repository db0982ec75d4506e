package memtrace

import (
	"fmt"
	"math"
	"testing"

	"nvscavenger/internal/trace"
)

// perfCapture collects the full performance-event stream.
type perfCapture struct {
	events []trace.PerfEvent
}

func (p *perfCapture) FlushEvents(batch []trace.PerfEvent) error {
	p.events = append(p.events, batch...)
	return nil
}

// perfWorkload interleaves compute gaps with stores: 4096 references with 3
// compute instructions ahead of each.  4096 is a multiple of every tested
// period, so the final reference is observed under each modulo gate and the
// gap invariant holds with an empty tail.
func perfWorkload(tr *Tracer) {
	arr, _ := tr.GlobalF64("a", 64)
	tr.BeginIteration()
	for k := 0; k < 4096; k++ {
		tr.Compute(3)
		arr.Store(k%64, float64(k))
	}
}

// TestSamplingGateKeepsPerfGapAccounting is the regression test for the
// sampling-gate perf bug: a sampled-out reference retires an instruction
// but used to early-return before perfGap accumulation, so perf-event gap
// sums undercounted true retired instructions by exactly the skipped
// references.  At any period, sum(Gap) + len(events) + the pending tail
// must equal Instructions(), and with the workload ending on an observed
// reference the tail is empty, making sum(Gap)+len(events) invariant
// across periods.
func TestSamplingGateKeepsPerfGapAccounting(t *testing.T) {
	var want uint64
	for _, period := range []int{1, 2, 4, 8, 16, 64} {
		sink := &perfCapture{}
		tr := New(Config{Perf: sink, Sample: SampleSpec{Mode: SamplePeriodic, Rate: uint64(period)}})
		perfWorkload(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var gaps uint64
		for _, ev := range sink.events {
			gaps += ev.Gap
		}
		sum := gaps + uint64(len(sink.events)) + tr.PendingPerfGap()
		if sum != tr.Instructions() {
			t.Errorf("period %d: sum(Gap)+events+tail = %d, want %d retired instructions",
				period, sum, tr.Instructions())
		}
		if tr.PendingPerfGap() != 0 {
			t.Errorf("period %d: workload ends on an observed reference, tail = %d",
				period, tr.PendingPerfGap())
		}
		if period == 1 {
			want = gaps + uint64(len(sink.events))
		} else if got := gaps + uint64(len(sink.events)); got != want {
			t.Errorf("period %d: sum(Gap)+len(events) = %d, want %d (invariant across periods)",
				period, got, want)
		}
	}
}

// TestSamplingGatePerfAccountingRandomModes extends the invariant to the
// seeded modes, where the tail is generally non-empty.
func TestSamplingGatePerfAccountingRandomModes(t *testing.T) {
	for _, spec := range []SampleSpec{
		{Mode: SampleBernoulli, Rate: 16, Seed: 7},
		{Mode: SampleBytes, Rate: 1024, Seed: 7},
	} {
		sink := &perfCapture{}
		tr := New(Config{Perf: sink, Sample: spec})
		perfWorkload(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var gaps uint64
		for _, ev := range sink.events {
			gaps += ev.Gap
		}
		sum := gaps + uint64(len(sink.events)) + tr.PendingPerfGap()
		if sum != tr.Instructions() {
			t.Errorf("%s: sum(Gap)+events+tail = %d, want %d", spec, sum, tr.Instructions())
		}
		if tr.Sampled+tr.SampledOut != 4096 {
			t.Errorf("%s: Sampled %d + SampledOut %d != 4096 references",
				spec, tr.Sampled, tr.SampledOut)
		}
	}
}

// estimatorWorkload touches two objects with known reference counts: a is
// stored 8192 times and read 8192 times, b is stored 2048 times.
func estimatorWorkload(tr *Tracer) {
	a, _ := tr.GlobalF64("a", 64)
	b, _ := tr.GlobalF64("b", 64)
	tr.BeginIteration()
	for k := 0; k < 8192; k++ {
		a.Store(k%64, 1)
		_ = a.Load(k % 64)
		if k%4 == 0 {
			b.Store(k%64, 2)
		}
	}
}

func objByName(tr *Tracer, name string) *Object {
	for _, o := range tr.Objects() {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// TestEstimatorRescalesWithinTolerance: estimator-scaled sampled counts
// must land near the perfect profiler's counts for every mode — the
// alloc-prof-sim relative-error methodology at the unit-test scale.
func TestEstimatorRescalesWithinTolerance(t *testing.T) {
	full := New(Config{})
	estimatorWorkload(full)
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	trueA := float64(objByName(full, "a").Total().Refs()) // 16384
	trueB := float64(objByName(full, "b").Total().Refs()) // 2048

	for _, spec := range []SampleSpec{
		{Mode: SamplePeriodic, Rate: 16},
		{Mode: SampleBernoulli, Rate: 16, Seed: 1},
		{Mode: SampleBytes, Rate: 256, Seed: 1},
	} {
		tr := New(Config{Sample: spec})
		estimatorWorkload(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		est := tr.Estimator()
		for _, tc := range []struct {
			name string
			want float64
		}{{"a", trueA}, {"b", trueB}} {
			o := objByName(tr, tc.name)
			got := est.Total(o).Refs()
			rel := math.Abs(got-tc.want) / tc.want
			if rel > 0.15 {
				t.Errorf("%s: object %s estimated %.0f refs, true %.0f (rel err %.2f)",
					spec, tc.name, got, tc.want, rel)
			}
		}
		// The estimated series must sum (approximately) to the estimated
		// total: series and totals are scaled consistently.
		o := objByName(tr, "a")
		var seriesSum float64
		for _, v := range est.IterSeries(o) {
			seriesSum += v
		}
		if total := est.Total(o).Refs(); math.Abs(seriesSum-total) > 1e-6*total {
			t.Errorf("%s: series sums to %.2f, total %.2f", spec, seriesSum, total)
		}
	}
}

// TestEstimatorFullRunIsIdentity: with sampling off every factor is 1 and
// estimates equal the exact counters.
func TestEstimatorFullRunIsIdentity(t *testing.T) {
	tr := New(Config{})
	estimatorWorkload(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	est := tr.Estimator()
	for _, o := range tr.Objects() {
		if f := est.Factor(o); f != 1 {
			t.Errorf("object %s factor = %g, want 1", o.Name, f)
		}
		if got, want := est.Total(o), o.Total(); got.Reads != float64(want.Reads) || got.Writes != float64(want.Writes) {
			t.Errorf("object %s estimate %+v != exact %+v", o.Name, got, want)
		}
	}
}

// TestSamplingDeterministicBySeed: equal specs reproduce the observation
// stream exactly; different seeds produce different streams.
func TestSamplingDeterministicBySeed(t *testing.T) {
	observe := func(spec SampleSpec) (uint64, []uint64) {
		tr := New(Config{Sample: spec})
		estimatorWorkload(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var perObj []uint64
		for _, o := range tr.Objects() {
			perObj = append(perObj, o.Total().Refs())
		}
		return tr.Sampled, perObj
	}
	spec := SampleSpec{Mode: SampleBernoulli, Rate: 32, Seed: 9}
	n1, o1 := observe(spec)
	n2, o2 := observe(spec)
	if n1 != n2 || fmt.Sprint(o1) != fmt.Sprint(o2) {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", n1, o1, n2, o2)
	}
	n3, _ := observe(SampleSpec{Mode: SampleBernoulli, Rate: 32, Seed: 10})
	if n3 == n1 {
		t.Fatalf("seeds 9 and 10 observed identical counts (%d); gate ignores the seed?", n1)
	}
}

// TestBernoulliObservesNearRate: the acceptance probability must track
// 1/Rate closely over a long stream.
func TestBernoulliObservesNearRate(t *testing.T) {
	tr := New(Config{Sample: SampleSpec{Mode: SampleBernoulli, Rate: 8, Seed: 3}})
	estimatorWorkload(tr) // 18432 references
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	total := tr.Sampled + tr.SampledOut
	want := float64(total) / 8
	if got := float64(tr.Sampled); math.Abs(got-want) > 0.1*want {
		t.Errorf("bernoulli 1/8 observed %d of %d, want ~%.0f", tr.Sampled, total, want)
	}
}

func TestSampleSpecParseRoundTrip(t *testing.T) {
	cases := []string{
		"off",
		"period:rate=16",
		"bernoulli:rate=64,seed=7",
		"bytes:rate=4096,seed=42",
	}
	for _, text := range cases {
		spec, err := ParseSampleSpec(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if got := spec.String(); got != text {
			t.Errorf("round trip %q -> %q", text, got)
		}
	}
	if spec, err := ParseSampleSpec(""); err != nil || spec.Enabled() {
		t.Errorf("empty spec = %v, %v; want disabled", spec, err)
	}
	for _, bad := range []string{"bernoulli", "bernoulli:rate=1", "bogus:rate=4", "period:every=2", "period:rate=x"} {
		if _, err := ParseSampleSpec(bad); err == nil {
			t.Errorf("%q must not parse", bad)
		}
	}
}

// TestByteSamplingFindsLargeObjectsFirst: byte-threshold selection spends
// its observation budget proportionally to byte traffic, so an object
// touched with larger accesses is observed at least as reliably as its
// reference share suggests.
func TestByteSamplingWeightsByBytes(t *testing.T) {
	tr := New(Config{Sample: SampleSpec{Mode: SampleBytes, Rate: 512, Seed: 5}})
	estimatorWorkload(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Sampled == 0 {
		t.Fatal("byte sampling observed nothing")
	}
	// 18432 refs * 8 bytes / 512-byte mean threshold ~ 288 observations.
	total := tr.Sampled + tr.SampledOut
	want := float64(total) * 8 / 512
	if got := float64(tr.Sampled); math.Abs(got-want) > 0.25*want {
		t.Errorf("byte sampling observed %d of %d, want ~%.0f", tr.Sampled, total, want)
	}
}

// TestPeriodicGateMatchesModulo: the periodic gate counts down instead of
// dividing, and must observe exactly the references a modulo gate would —
// the i-th reference (1-based) when i%rate == 0.
func TestPeriodicGateMatchesModulo(t *testing.T) {
	const refs = 100_000
	for _, rate := range []uint64{2, 3, 64, 1000} {
		s := newSampler(SampleSpec{Mode: SamplePeriodic, Rate: rate})
		observed := 0
		for i := uint64(1); i <= refs; i++ {
			got := s.observe(8)
			if want := i%rate == 0; got != want {
				t.Fatalf("rate %d: reference %d observed=%v, want %v", rate, i, got, want)
			}
			if got {
				observed++
			}
		}
		if want := refs / int(rate); observed != want {
			t.Errorf("rate %d: observed %d of %d references, want %d", rate, observed, refs, want)
		}
	}
}

// mixedSizeWorkload touches objects with 1-, 4- and 8-byte references,
// one of them with two sizes, so byte-sampling weights differ per object.
func mixedSizeWorkload(tr *Tracer) {
	a, aObj := tr.GlobalF64("a", 64)
	b, _ := tr.GlobalF32("b", 64)
	h, hObj := tr.HeapF32("h", "w.go:1", 256)
	tr.BeginIteration()
	for k := 0; k < 4096; k++ {
		a.Store(k%64, 1)
		if k%3 == 0 {
			tr.access(aObj.Base+uint64(k%64)*4, 4, trace.Read)
		}
		b.Store(k%64, 2)
		_ = h.Load(k % 256)
		if k%7 == 0 {
			tr.access(hObj.Base+uint64(k%256), 1, trace.Write)
		}
	}
	tr.Free(hObj)
	_ = a.Load(0)
}

// TestByteSamplingFactorsPinned pins every object's byte-sampling factor
// on a fixed mixed-size run.  The values were produced when the sampled
// byte weights lived in a per-tracer map keyed by object ID; keeping them
// on the object must not move any of them.  The stack object is never
// observed, so its factor is 0 ("lost").
func TestByteSamplingFactorsPinned(t *testing.T) {
	want := map[uint64]map[string]float64{
		1: {"stack": 0, "a": 6.4721845318860245, "b": 12, "h": 12.338884866039102},
		2: {"stack": 0, "a": 6.589690721649484, "b": 12, "h": 12.235979606700655},
	}
	for seed, factors := range want {
		tr := New(Config{Sample: SampleSpec{Mode: SampleBytes, Rate: 48, Seed: seed}})
		mixedSizeWorkload(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		est := tr.Estimator()
		objs := tr.Objects()
		if len(objs) != len(factors) {
			t.Fatalf("seed %d: %d objects, want %d", seed, len(objs), len(factors))
		}
		for _, o := range objs {
			if got := est.Factor(o); got != factors[o.Name] {
				t.Errorf("seed %d: Factor(%s) = %v, want %v", seed, o.Name, got, factors[o.Name])
			}
		}
	}
}
