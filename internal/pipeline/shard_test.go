package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"nvscavenger/internal/apps"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/s3dmini"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// perfCap captures the performance-event stream.
type perfCap struct{ events []trace.PerfEvent }

func (p *perfCap) FlushEvents(batch []trace.PerfEvent) error {
	p.events = append(p.events, batch...)
	return nil
}

// fingerprint renders every externally observable statistic of a finished
// stack — per-object counters, per-segment series, cache counters, the
// captured transaction trace and the perf stream — into one string, so
// sharded-vs-legacy equivalence is literal string equality.
func fingerprint(st *Stack, perf []trace.PerfEvent) string {
	var b bytes.Buffer
	tr := st.Tracer
	fmt.Fprintf(&b, "sampled=%d sampledOut=%d unknown=%d instrs=%d loops=%d highwater=%d footprint=%d\n",
		tr.Sampled, tr.SampledOut, tr.Unknown, tr.Instructions(), tr.MainLoopIterations(),
		tr.StackHighWater(), tr.Footprint())
	lk, ch, sc, rb := tr.RegistryStats()
	fmt.Fprintf(&b, "registry lookups=%d cacheHits=%d scanned=%d rebalances=%d\n", lk, ch, sc, rb)
	est := tr.Estimator()
	for idx, o := range tr.Objects() {
		seq, strided, random := o.PatternCounts()
		fmt.Fprintf(&b, "obj %d %v %q %q size=%d reads=%d writes=%d touched=%d iters=%d pattern=%v seq=%d strided=%d random=%d factor=%g\n",
			idx, o.Segment, o.Name, o.Site, o.Size, o.Total().Reads, o.Total().Writes,
			o.TouchedIterations(), o.Iterations(), o.AccessPattern(), seq, strided, random, est.Factor(o))
		for i := 0; i < o.Iterations(); i++ {
			s := o.Iter(i)
			if s.Reads == 0 && s.Writes == 0 && s.Instructions == 0 {
				continue
			}
			fmt.Fprintf(&b, "  iter %d reads=%d writes=%d instrs=%d\n", i, s.Reads, s.Writes, s.Instructions)
		}
	}
	for _, seg := range []trace.Segment{trace.SegUnknown, trace.SegGlobal, trace.SegHeap, trace.SegStack} {
		for i := 0; i <= tr.MainLoopIterations()+1; i++ {
			s := tr.SegmentStats(seg, i)
			if s.Reads == 0 && s.Writes == 0 {
				continue
			}
			fmt.Fprintf(&b, "seg %v iter %d %+v\n", seg, i, s)
		}
	}
	if st.Hierarchy != nil {
		fmt.Fprintf(&b, "l1 %+v\nl2 %+v\nmem reads=%d writes=%d\n",
			st.Hierarchy.L1Stats(), st.Hierarchy.L2Stats(), st.Hierarchy.MemReads, st.Hierarchy.MemWrites)
	}
	txs := st.Transactions()
	fmt.Fprintf(&b, "txs %d\n", len(txs))
	for _, tx := range txs {
		fmt.Fprintf(&b, "tx %x %v %d\n", tx.Addr, tx.Write, tx.Cycle)
	}
	fmt.Fprintf(&b, "perf %d\n", len(perf))
	for _, ev := range perf {
		fmt.Fprintf(&b, "ev %d %x %d %v\n", ev.Gap, ev.Access.Addr, ev.Access.Size, ev.Access.Op)
	}
	return b.String()
}

func metricsText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.Snapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func shardTestConfig(app string, spec memtrace.SampleSpec, pc *perfCap, reg *obs.Registry) Config {
	cache := cachesim.PaperConfig()
	return Config{
		StackMode: memtrace.FastStack,
		Sample:    spec,
		Cache:     &cache,
		CaptureTx: true,
		Perf:      pc,
		Metrics:   reg,
		Labels:    []obs.Label{obs.L("app", app)},
	}
}

// legacyRun is the live-counting reference: one stack over the full run,
// wired by hand with a Counted wrapper at every stage boundary.
func legacyRun(t *testing.T, app string, iters int, spec memtrace.SampleSpec) (string, string) {
	t.Helper()
	reg := obs.NewRegistry()
	pc := &perfCap{}
	st := countedBuild(t, shardTestConfig(app, spec, pc, reg))
	a, err := apps.New(app, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.Run(a, st.Tracer, iters); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return fingerprint(st, pc.events), metricsText(t, reg)
}

func shardedRun(t *testing.T, app string, iters, shards int, spec memtrace.SampleSpec) (string, string) {
	t.Helper()
	reg := obs.NewRegistry()
	pc := &perfCap{}
	merged, _, err := runSharded(context.Background(), shardTestConfig(app, spec, pc, reg), app, 0.05, iters, shards)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(merged, pc.events), metricsText(t, reg)
}

// TestShardedMergeMatchesLegacy is the sharding contract: for every sampling
// discipline and every shard count, the merged result of a sharded run — all
// object statistics, segment series, cache counters, the captured transaction
// trace, the perf stream AND the rendered metrics snapshot — is byte-identical
// to the single-stack instrumented run.
func TestShardedMergeMatchesLegacy(t *testing.T) {
	specs := []struct {
		name string
		spec memtrace.SampleSpec
	}{
		{"full", memtrace.SampleSpec{}},
		{"periodic", memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: 4}},
		{"bernoulli", memtrace.SampleSpec{Mode: memtrace.SampleBernoulli, Rate: 8, Seed: 7}},
		{"bytes", memtrace.SampleSpec{Mode: memtrace.SampleBytes, Rate: 512, Seed: 5}},
	}
	const iters = 5
	for _, tc := range specs {
		t.Run(tc.name, func(t *testing.T) {
			wantFP, wantMetrics := legacyRun(t, "gtc", iters, tc.spec)
			for _, k := range []int{1, 2, 3, 4} {
				gotFP, gotMetrics := shardedRun(t, "gtc", iters, k, tc.spec)
				if gotFP != wantFP {
					t.Errorf("shards=%d: merged fingerprint diverges from legacy run\n%s", k, firstDiff(wantFP, gotFP))
				}
				if gotMetrics != wantMetrics {
					t.Errorf("shards=%d: metrics snapshot diverges\n%s", k, firstDiff(wantMetrics, gotMetrics))
				}
			}
		})
	}
}

// TestShardedMergeSecondApp covers a second access mix (s3d's structured
// stencil) at one shard count.
func TestShardedMergeSecondApp(t *testing.T) {
	want, _ := legacyRun(t, "s3d", 4, memtrace.SampleSpec{})
	got, _ := shardedRun(t, "s3d", 4, 3, memtrace.SampleSpec{})
	if got != want {
		t.Fatalf("s3d shards=3 diverges from legacy run\n%s", firstDiff(want, got))
	}
}

// TestShardedMergeSlowStack covers the tracer-only per-frame stack mode the
// slow tool uses: no cache stage, no transaction stream, per-routine stack
// objects.
func TestShardedMergeSlowStack(t *testing.T) {
	const iters = 5
	legacy := MustBuild(Config{StackMode: memtrace.SlowStack})
	a, err := apps.New("gtc", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.Run(a, legacy.Tracer, iters); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(legacy, nil)
	for _, k := range []int{2, 3} {
		merged, _, err := runSharded(context.Background(), Config{StackMode: memtrace.SlowStack}, "gtc", 0.05, iters, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(merged, nil); got != want {
			t.Errorf("slow stack shards=%d diverges\n%s", k, firstDiff(want, got))
		}
	}
}

// firstDiff locates the first differing line of two multi-line strings.
func firstDiff(want, got string) string {
	w := bytes.Split([]byte(want), []byte("\n"))
	g := bytes.Split([]byte(got), []byte("\n"))
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(w), len(g))
}

// TestShardedPartitionSpans: the shard windows tile [1, iterations] exactly —
// contiguous, non-overlapping, within one iteration of even.
func TestShardedPartitionSpans(t *testing.T) {
	cache := cachesim.PaperConfig()
	for iters := 1; iters <= 9; iters++ {
		for shards := 1; shards <= 6; shards++ {
			ss, err := buildSharded(Config{StackMode: memtrace.FastStack, Cache: &cache}, iters, shards)
			if err != nil {
				t.Fatal(err)
			}
			if shards <= iters && len(ss.stacks) != shards {
				t.Fatalf("iters=%d shards=%d: got %d shards", iters, shards, len(ss.stacks))
			}
			if shards > iters && len(ss.stacks) != iters {
				t.Fatalf("iters=%d shards=%d: want clamp to %d, got %d", iters, shards, iters, len(ss.stacks))
			}
			next := 1
			for k, w := range ss.windows {
				if w.Start != next {
					t.Fatalf("iters=%d shards=%d: shard %d starts at %d, want %d", iters, shards, k, w.Start, next)
				}
				span := w.End - w.Start + 1
				if span < iters/len(ss.stacks) || span > iters/len(ss.stacks)+1 {
					t.Fatalf("iters=%d shards=%d: shard %d span %d is uneven", iters, shards, k, span)
				}
				if (k == 0) != w.First || (k == len(ss.stacks)-1) != w.Last {
					t.Fatalf("iters=%d shards=%d: shard %d First/Last flags wrong", iters, shards, k)
				}
				next = w.End + 1
			}
			if next != iters+1 {
				t.Fatalf("iters=%d shards=%d: spans end at %d, want %d", iters, shards, next-1, iters)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedRejectsAccessTaps: a tap would observe every shard's replayed
// prefix rather than the run's stream once, so buildSharded refuses.
func TestShardedRejectsAccessTaps(t *testing.T) {
	cache := cachesim.PaperConfig()
	_, err := buildSharded(Config{Cache: &cache, AccessTaps: []trace.Sink{&trace.Stats{}}}, 4, 2)
	if err == nil {
		t.Fatal("buildSharded must reject access taps")
	}
}

// TestShardedArenaReuse: the shards of one domain recycle staging slabs
// through the shared arenas — a second sharded run over the same Arenas
// allocates no new slabs.
func TestShardedArenaReuse(t *testing.T) {
	arenas := NewArenas(0)
	run := func() {
		cache := cachesim.PaperConfig()
		cfg := Config{StackMode: memtrace.FastStack, Cache: &cache, CaptureTx: true, Arenas: arenas}
		if _, _, err := runSharded(context.Background(), cfg, "gtc", 0.05, 4, 2); err != nil {
			t.Fatal(err)
		}
	}
	run()
	accessAllocs := arenas.Access.Gets() - arenas.Access.Reuses()
	txAllocs := arenas.Tx.Gets() - arenas.Tx.Reuses()
	run()
	if a := arenas.Access.Gets() - arenas.Access.Reuses(); a != accessAllocs {
		t.Errorf("second run allocated %d fresh access slabs", a-accessAllocs)
	}
	if a := arenas.Tx.Gets() - arenas.Tx.Reuses(); a != txAllocs {
		t.Errorf("second run allocated %d fresh transaction slabs", a-txAllocs)
	}
}

// outstanding reports how many slabs an arena has handed out and not yet
// gotten back: every Get either allocates or reuses a parked slab, every
// Put parks one, so Gets - Reuses - Free is the live count.
func outstanding[T any](a *trace.Arena[T]) uint64 {
	return a.Gets() - a.Reuses() - uint64(a.Free())
}

// TestShardedMergeErrorReleasesChunks pins the error-path ownership
// contract: when a TxSink fails mid-merge, every arena chunk the
// per-shard captures staged must still be handed back — nvlint's
// arenaown pass proves the same property statically (the Deliver calls
// in Merge are covered by the deferred releaseCaptures).
func TestShardedMergeErrorReleasesChunks(t *testing.T) {
	arenas := NewArenas(0)
	cache := cachesim.PaperConfig()
	sinkErr := fmt.Errorf("sink failed")
	cfg := Config{
		StackMode: memtrace.FastStack,
		Cache:     &cache,
		Arenas:    arenas,
		TxSinks: []trace.TxSink{trace.TxSinkFunc(func([]trace.Transaction) error {
			return sinkErr
		})},
	}
	if _, _, err := runSharded(context.Background(), cfg, "gtc", 0.05, 4, 2); err == nil {
		t.Fatal("Merge with a failing TxSink must return its error")
	}
	if n := outstanding(arenas.Tx); n != 0 {
		t.Errorf("failed Merge leaked %d transaction slab(s) out of the arena", n)
	}
}

// TestShardedCloseReleasesChunks pins the abort path: Close on a sharded
// stack that was never merged must hand every captured chunk back.
func TestShardedCloseReleasesChunks(t *testing.T) {
	arenas := NewArenas(0)
	cache := cachesim.PaperConfig()
	cfg := Config{StackMode: memtrace.FastStack, Cache: &cache, CaptureTx: true, Arenas: arenas}
	ss, err := buildSharded(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, st := range ss.stacks {
		a, err := apps.New("gtc", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := apps.Run(a, st.Tracer, ss.windows[k].End); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if n := outstanding(arenas.Tx); n != 0 {
		t.Errorf("Close leaked %d transaction slab(s) out of the arena", n)
	}
}
