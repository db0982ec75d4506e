package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/experiments"
	"nvscavenger/internal/journal"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// gateOnly is a periodic sampler so sparse that nearly every reference
// stops at its gate.  A tracer with it costs the app kernel plus the gate:
// the floor the attribution cost is measured above.
var gateOnly = memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: 1 << 30}

// layerResult is the traced layer pass's output.
type layerResult struct {
	values map[string]float64
	// decompositionPct is floor + attribution + cachesim + pipeline
	// overhead per reference over Session.Fast wall per reference, in
	// percent.
	decompositionPct float64
}

// layerPass times each simulator layer from outside by wrapping the calls
// the benchmark makes into it.  Every app runs at size p under a gate-only
// tracer (the floor), under tracer-only stacks in fast, slow and sampled
// mode, on a hand-built tracer → hierarchy stack with the hierarchy's
// Flush and Drain timed, and through Session.Fast; the differences give
// the per-reference cost of each layer.  Each time is the best of reps
// interleaved repetitions, as the timed units are.  The captured
// transactions are then replayed through dramsim, nek5000 and cam drive
// cpusim at every Figure 12 latency, and the journal commits appends of a
// job record.
func layerPass(p params, reps, appends int, seed int64) (layerResult, error) {
	sample := memtrace.SampleSpec{Mode: memtrace.SampleBernoulli, Rate: p.SampleRate, Seed: uint64(seed)}
	runs := map[string]*appRun{}
	for rep := 0; rep < reps; rep++ {
		for _, name := range experiments.AppNames {
			r, err := measureApp(name, p, sample)
			if err != nil {
				return layerResult{}, err
			}
			if prev := runs[name]; prev != nil {
				r = prev.bestOf(r)
			}
			runs[name] = r
		}
	}

	var sum appRun
	var captured [][]trace.Transaction
	for _, name := range experiments.AppNames {
		sum.add(runs[name])
		captured = append(captured, runs[name].txs)
	}
	perRef := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(sum.refs) }
	v := map[string]float64{
		"apps.floor_ns_per_ref":            perRef(sum.floor),
		"memtrace.attr_ns_per_ref.fast":    perRef(sum.fast - sum.floor),
		"memtrace.attr_ns_per_ref.slow":    perRef(sum.slow - sum.floor),
		"memtrace.attr_ns_per_ref.sampled": perRef(sum.sampled - sum.floor),
		"memtrace.object_cache_hit_ratio":  sum.cacheHits / sum.lookups,
		"memtrace.bucket_scan_length":      sum.scanned / (sum.lookups - sum.cacheHits),
		"pipeline.overhead_ns_per_ref":     perRef(sum.session - sum.stack),
		"cachesim.ns_per_ref":              float64(sum.cacheBusy.Nanoseconds()) / float64(sum.delivered),
		"cachesim.l1_miss_ratio":           float64(sum.l1Miss) / float64(sum.l1Acc),
		"cachesim.l2_miss_ratio":           float64(sum.l2Miss) / float64(sum.l2Acc),
		"cachesim.tx_per_kref":             float64(sum.tx) * 1e3 / float64(sum.refs),
	}
	parts := v["apps.floor_ns_per_ref"] + v["memtrace.attr_ns_per_ref.fast"] + v["pipeline.overhead_ns_per_ref"] + perRef(sum.cacheBusy)
	res := layerResult{values: v, decompositionPct: parts / perRef(sum.session) * 100}

	if err := cpusimProbe(p, v); err != nil {
		return res, err
	}
	if err := dramsimProbe(captured, v); err != nil {
		return res, err
	}
	if err := journalProbe(appends, v); err != nil {
		return res, err
	}
	return res, nil
}

// appRun is one app's pass through the layer variants: wall times, the
// hierarchy's busy time, and the simulated counts, which repeat exactly.
type appRun struct {
	floor, fast, slow, sampled, stack, session, cacheBusy time.Duration

	refs, delivered, l1Acc, l1Miss, l2Acc, l2Miss, tx uint64
	lookups, cacheHits, scanned                       float64
	txs                                               []trace.Transaction
}

// bestOf keeps each of r's times unless o's is shorter.
func (r *appRun) bestOf(o *appRun) *appRun {
	for _, d := range []struct{ dst, src *time.Duration }{
		{&r.floor, &o.floor}, {&r.fast, &o.fast}, {&r.slow, &o.slow}, {&r.sampled, &o.sampled},
		{&r.stack, &o.stack}, {&r.session, &o.session}, {&r.cacheBusy, &o.cacheBusy},
	} {
		*d.dst = min(*d.dst, *d.src)
	}
	return r
}

// add sums o's times and counts into r.
func (r *appRun) add(o *appRun) {
	r.floor += o.floor
	r.fast += o.fast
	r.slow += o.slow
	r.sampled += o.sampled
	r.stack += o.stack
	r.session += o.session
	r.cacheBusy += o.cacheBusy
	r.refs += o.refs
	r.delivered += o.delivered
	r.l1Acc += o.l1Acc
	r.l1Miss += o.l1Miss
	r.l2Acc += o.l2Acc
	r.l2Miss += o.l2Miss
	r.tx += o.tx
	r.lookups += o.lookups
	r.cacheHits += o.cacheHits
	r.scanned += o.scanned
}

// measureApp runs one app through every layer variant once.
func measureApp(name string, p params, sample memtrace.SampleSpec) (*appRun, error) {
	r := &appRun{}
	tr, d, err := timeApp(name, p, memtrace.Config{Sample: gateOnly})
	if err != nil {
		return nil, err
	}
	r.refs, r.floor = tr.Sampled+tr.SampledOut, d
	for _, v := range []struct {
		cfg memtrace.Config
		dst *time.Duration
	}{
		{memtrace.Config{StackMode: memtrace.FastStack}, &r.fast},
		{memtrace.Config{StackMode: memtrace.SlowStack}, &r.slow},
		{memtrace.Config{StackMode: memtrace.FastStack, Sample: sample}, &r.sampled},
	} {
		if _, *v.dst, err = timeApp(name, p, v.cfg); err != nil {
			return nil, err
		}
	}

	hb, err := handBuilt(name, p)
	if err != nil {
		return nil, err
	}
	l1, l2 := hb.cache.h.L1Stats(), hb.cache.h.L2Stats()
	r.stack, r.cacheBusy, r.delivered, r.txs = hb.wall, hb.cache.busy, hb.cache.accesses, hb.txs
	r.l1Acc, r.l1Miss, r.l2Acc, r.l2Miss, r.tx = l1.Accesses(), l1.Misses, l2.Accesses(), l2.Misses, uint64(len(hb.txs))

	sess := experiments.NewSession(experiments.WithScale(p.Scale), experiments.WithIterations(p.Iterations),
		experiments.WithJobs(1), experiments.WithApps(name))
	start := time.Now()
	run, err := sess.Fast(name)
	if err != nil {
		return nil, err
	}
	r.session = time.Since(start)
	if got := factsOf(run); got != hb.facts {
		return nil, fmt.Errorf("%s: hand-built stack simulated %+v, Session.Fast %+v", name, hb.facts, got)
	}
	snap := sess.MetricsSnapshot()
	labels := []obs.Label{obs.L("app", name), obs.L("mode", "fast")}
	for _, g := range []struct {
		name string
		dst  *float64
	}{{"memtrace_lookups", &r.lookups}, {"memtrace_object_cache_hits", &r.cacheHits}, {"memtrace_bucket_scanned", &r.scanned}} {
		var ok bool
		if *g.dst, ok = snap.Gauge(g.name, labels...); !ok {
			return nil, fmt.Errorf("%s: no %s series in the session's metrics", name, g.name)
		}
	}
	return r, nil
}

// timeApp runs one app under a tracer built from cfg and returns its wall
// time, app construction included, as Session.Fast's is.
func timeApp(name string, p params, cfg memtrace.Config) (*memtrace.Tracer, time.Duration, error) {
	start := time.Now()
	tr, err := traceApp(name, p, cfg)
	return tr, time.Since(start), err
}

// timedHierarchy is the tracer's sink on the hand-built stack: it times
// every batch the hierarchy simulates.
type timedHierarchy struct {
	h        *cachesim.Hierarchy
	busy     time.Duration
	accesses uint64
}

func (t *timedHierarchy) Flush(batch []trace.Access) error {
	start := time.Now()
	err := t.h.Flush(batch)
	t.busy += time.Since(start)
	t.accesses += uint64(len(batch))
	return err
}

// stackRun is one run on the hand-built stack.
type stackRun struct {
	wall  time.Duration
	cache *timedHierarchy
	txs   []trace.Transaction
	facts runFacts
}

// handBuilt runs an app on a stack assembled from memtrace.New and
// cachesim.New the way pipeline.Build fuses an uninstrumented fast stack,
// with the hierarchy's Flush and Drain timed and its transactions
// captured.
func handBuilt(name string, p params) (stackRun, error) {
	var r stackRun
	h, err := cachesim.New(cachesim.PaperConfig(), trace.TxSinkFunc(func(batch []trace.Transaction) error {
		r.txs = append(r.txs, batch...)
		return nil
	}))
	if err != nil {
		return r, err
	}
	r.cache = &timedHierarchy{h: h}
	start := time.Now()
	tr, err := traceApp(name, p, memtrace.Config{StackMode: memtrace.FastStack, Sink: r.cache})
	if err != nil {
		return r, err
	}
	drain := time.Now()
	err = h.Drain()
	r.cache.busy += time.Since(drain)
	r.wall = time.Since(start)
	if err != nil {
		return r, err
	}
	r.facts = runFacts{
		Refs:         tr.Sampled,
		L1Misses:     h.L1Stats().Misses,
		L2Misses:     h.L2Stats().Misses,
		Transactions: uint64(len(r.txs)),
		Footprint:    tr.Footprint(),
	}
	return r, nil
}

// timedCore is the tracer's perf sink in the cpusim probe: it times every
// event batch the core model consumes.
type timedCore struct {
	c      *cpusim.Core
	busy   time.Duration
	events uint64
}

func (t *timedCore) FlushEvents(batch []trace.PerfEvent) error {
	start := time.Now()
	err := t.c.FlushEvents(batch)
	t.busy += time.Since(start)
	t.events += uint64(len(batch))
	return err
}

// cpusimProbe drives the core model the way Figure 12 does: one iteration
// of nek5000 and cam at every Table IV latency.  It records host time per
// event in FlushEvents and Finish, and the mean simulated IPC.
func cpusimProbe(p params, v map[string]float64) error {
	var busy time.Duration
	var events uint64
	var ipc float64
	var points int
	for _, name := range []string{"nek5000", "cam"} {
		for _, lat := range experiments.Figure12Latencies {
			core, err := cpusim.New(cpusim.PaperConfig(lat))
			if err != nil {
				return err
			}
			tc := &timedCore{c: core}
			one := p
			one.Iterations = 1
			if _, err := traceApp(name, one, memtrace.Config{StackMode: memtrace.FastStack, Perf: tc}); err != nil {
				return err
			}
			start := time.Now()
			if err := core.Finish(); err != nil {
				return err
			}
			busy += tc.busy + time.Since(start)
			events += tc.events
			ipc += core.IPC()
			points++
		}
	}
	v["cpusim.ns_per_event"] = float64(busy.Nanoseconds()) / float64(events)
	v["cpusim.ipc"] = ipc / float64(points)
	return nil
}

// dramsimProbe replays each captured transaction trace through a memory
// system per device profile, timing FlushTx, as Table VI does.
func dramsimProbe(captured [][]trace.Transaction, v map[string]float64) error {
	var busy time.Duration
	var txs, rowHits, rowAccesses uint64
	for _, batch := range captured {
		for _, prof := range dramsim.Profiles() {
			m, err := dramsim.New(dramsim.PaperConfig(prof))
			if err != nil {
				return err
			}
			start := time.Now()
			if err := m.FlushTx(batch); err != nil {
				return err
			}
			busy += time.Since(start)
			txs += uint64(len(batch))
			rep := m.Report()
			rowHits += rep.RowHits
			rowAccesses += rep.RowHits + rep.RowMisses
		}
	}
	v["dramsim.ns_per_tx"] = float64(busy.Nanoseconds()) / float64(txs)
	v["dramsim.row_hit_ratio"] = float64(rowHits) / float64(rowAccesses)
	return nil
}

// journalProbe commits appends submitted-job records, each with its fsync,
// to a fresh journal and records the p50 and p99 commit latency.
func journalProbe(appends int, v map[string]float64) (err error) {
	dir, err := os.MkdirTemp("", "nvbench-journal-")
	if err != nil {
		return err
	}
	defer removeAll(dir, &err)
	j, _, err := journal.Open(filepath.Join(dir, "journal.wal"), journal.Options{})
	if err != nil {
		return err
	}
	spec := experiments.JobSpec{Scale: 0.05, Iterations: 10}
	lat := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		start := time.Now()
		if err := j.Append(journal.Record{Kind: journal.KindSubmitted, Job: fmt.Sprintf("job-%d", i+1), Spec: &spec}); err != nil {
			return errors.Join(err, j.Close())
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}
	v["journal.append_us.p50"] = median(lat)
	v["journal.append_us.p99"], _ = percentile(lat, 99)
	return nil
}

// removeAll removes a temporary directory on the way out of a function,
// reporting a failure through *err unless it already holds one.
func removeAll(dir string, err *error) {
	if rerr := os.RemoveAll(dir); *err == nil {
		*err = rerr
	}
}
