package pipeline

import (
	"context"
	"errors"
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"
)

// countedBuild is the live-counting reference for the metric fold: the
// stack cfg declares, assembled by hand from memtrace.New and cachesim.New
// with a Counted wrapper at every stage boundary.  Its own cfg stays zero,
// so Close folds nothing and every series comes from the wrappers.
func countedBuild(t *testing.T, cfg Config) *Stack {
	t.Helper()
	reg, ls := cfg.Metrics, cfg.Labels
	st := &Stack{}
	if cfg.Cache != nil {
		var txStages []Stage[trace.Transaction]
		for _, s := range cfg.TxSinks {
			txStages = append(txStages, TxStage(s))
		}
		if cfg.CaptureTx {
			st.capture = &Capture[trace.Transaction]{}
			txStages = append(txStages, st.capture)
		}
		var txSink trace.TxSink
		if len(txStages) > 0 {
			txSink = ToTxSink(Counted(reg, "transactions", Tee(txStages...), ls...))
		}
		var h *cachesim.Hierarchy
		var err error
		if cfg.Arenas != nil {
			h, err = cachesim.NewWithArena(*cfg.Cache, txSink, cfg.Arenas.Tx)
		} else {
			h, err = cachesim.New(*cfg.Cache, txSink)
		}
		if err != nil {
			t.Fatal(err)
		}
		st.Hierarchy = h
	}
	var accessStages []Stage[trace.Access]
	if st.Hierarchy != nil {
		accessStages = append(accessStages, st.Hierarchy)
	}
	for _, tap := range cfg.AccessTaps {
		accessStages = append(accessStages, tap)
	}
	var sink trace.Sink
	if len(accessStages) > 0 {
		sink = Counted(reg, "accesses", Tee(accessStages...), ls...)
	}
	var perf trace.PerfSink
	if cfg.Perf != nil {
		perf = trace.PerfSinkFunc(Counted(reg, "perf", StageFunc[trace.PerfEvent](cfg.Perf.FlushEvents), ls...).Flush)
	}
	mcfg := memtrace.Config{
		StackMode:  cfg.StackMode,
		Sample:     cfg.Sample,
		BufferSize: cfg.BufferSize,
		Sink:       sink,
		Perf:       perf,
	}
	if cfg.Arenas != nil {
		mcfg.Arena = cfg.Arenas.Access
	}
	st.Tracer = memtrace.New(mcfg)
	return st
}

// smallArenas stages accesses and transactions in small slabs, so a
// failing consumer trips mid-run rather than at the final drain.
func smallArenas() *Arenas {
	return &Arenas{
		Access: trace.NewArena[trace.Access](256),
		Tx:     trace.NewArena[trace.Transaction](64),
		Perf:   trace.NewArena[trace.PerfEvent](256),
	}
}

// failAfter returns a check that passes n calls and fails every later one.
func failAfter(n int) func() error {
	calls := 0
	return func() error {
		calls++
		if calls > n {
			return errors.New("consumer down")
		}
		return nil
	}
}

// TestFoldMatchesLiveCounting: on every topology Build wires, the stage
// series Close folds from end-of-run totals render byte-identical to what
// live Counted wrappers record — healthy runs and runs whose consumer fails.
func TestFoldMatchesLiveCounting(t *testing.T) {
	cases := []struct {
		name  string
		fails bool
		cfg   func() Config
	}{
		{"cache+capture", false, func() Config {
			c := cachesim.PaperConfig()
			return Config{Cache: &c, CaptureTx: true}
		}},
		{"capture+sink", false, func() Config {
			c := cachesim.PaperConfig()
			return Config{Cache: &c, CaptureTx: true, TxSinks: []trace.TxSink{&TxCapture{}}, BufferSize: 1000}
		}},
		{"tap+cache", false, func() Config {
			c := cachesim.PaperConfig()
			return Config{Cache: &c, AccessTaps: []trace.Sink{&trace.Stats{}}, Arenas: smallArenas()}
		}},
		{"perf-only", false, func() Config {
			return Config{Perf: &perfCap{}, Sample: memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: 3}}
		}},
		{"tracer+tap", false, func() Config {
			return Config{StackMode: memtrace.SlowStack, AccessTaps: []trace.Sink{&trace.Stats{}}}
		}},
		{"failing-txsink", true, func() Config {
			c := cachesim.PaperConfig()
			fail := failAfter(2)
			sink := trace.TxSinkFunc(func([]trace.Transaction) error { return fail() })
			return Config{Cache: &c, TxSinks: []trace.TxSink{sink}, Arenas: smallArenas()}
		}},
		{"failing-txsink-at-drain", true, func() Config {
			c := cachesim.PaperConfig()
			fail := failAfter(0)
			sink := trace.TxSinkFunc(func([]trace.Transaction) error { return fail() })
			return Config{Cache: &c, CaptureTx: true, TxSinks: []trace.TxSink{sink}}
		}},
		{"failing-perf", true, func() Config {
			fail := failAfter(3)
			perf := trace.PerfSinkFunc(func([]trace.PerfEvent) error { return fail() })
			return Config{Perf: perf, BufferSize: 256}
		}},
	}
	run := func(t *testing.T, st *Stack) string {
		t.Helper()
		a, err := apps.New("gtc", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		runErr := apps.Run(a, st.Tracer, 3)
		if err := errors.Join(runErr, st.Close()); err != nil {
			return err.Error()
		}
		return ""
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			labels := []obs.Label{obs.L("app", "gtc")}
			liveReg, foldReg := obs.NewRegistry(), obs.NewRegistry()
			live := tc.cfg()
			live.Metrics, live.Labels = liveReg, labels
			folded := tc.cfg()
			folded.Metrics, folded.Labels = foldReg, labels
			st, err := Build(folded)
			if err != nil {
				t.Fatal(err)
			}
			liveErr, foldErr := run(t, countedBuild(t, live)), run(t, st)
			if liveErr != foldErr || (liveErr != "") != tc.fails {
				t.Errorf("run error: live %q, fused %q, want failure %v", liveErr, foldErr, tc.fails)
			}
			want, got := metricsText(t, liveReg), metricsText(t, foldReg)
			if want == "" {
				t.Fatal("reference recorded no stage series")
			}
			if got != want {
				t.Errorf("folded metrics diverge from live counting\n%s", firstDiff(want, got))
			}
		})
	}
}

// errStep is the failure the test app reports from its second timestep.
var errStep = errors.New("step 2 diverged")

// failingApp traces a few array sweeps and fails in main-loop iteration 2.
type failingApp struct{ a memtrace.F64 }

func (f *failingApp) Name() string                { return "pipeline-failing" }
func (f *failingApp) Description() string         { return "fails in its second timestep" }
func (f *failingApp) Post(*memtrace.Tracer) error { return nil }
func (f *failingApp) Check() error                { return nil }

func (f *failingApp) Setup(tr *memtrace.Tracer) error {
	f.a, _ = tr.HeapF64("a", "fold_test.go:1", 64*1024)
	for i := 0; i < f.a.Len(); i += 8 {
		f.a.Store(i, float64(i))
	}
	return nil
}

func (f *failingApp) Step(_ *memtrace.Tracer, iter int) error {
	if iter == 2 {
		return errStep
	}
	for i := 0; i < f.a.Len(); i += 8 {
		f.a.Load(i)
	}
	return nil
}

func init() {
	apps.Register("pipeline-failing", func(float64) apps.App { return &failingApp{} })
}

// TestRunClosesOnErrorPaths: an app failure or a cancelled context makes
// Run return that error, yet the stack is still closed — its arena slabs
// are all handed back (Gets-Reuses-Free == 0) and, unsharded, its stage
// metrics are folded.
func TestRunClosesOnErrorPaths(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		app  string
		want error
	}{
		{"app-error", context.Background(), "pipeline-failing", errStep},
		{"ctx-error", cancelled, "gtc", context.Canceled},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 3} {
			arenas := NewArenas(0)
			reg := obs.NewRegistry()
			cache := cachesim.PaperConfig()
			cfg := Config{
				StackMode: memtrace.FastStack,
				Cache:     &cache,
				CaptureTx: true,
				Perf:      &perfCap{},
				Arenas:    arenas,
				Metrics:   reg,
			}
			st, app, err := Run(tc.ctx, cfg, tc.app, 0.05, 4, shards)
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s shards=%d: err = %v, want %v", tc.name, shards, err, tc.want)
			}
			if st != nil || app != nil {
				t.Errorf("%s shards=%d: failed Run must return no stack or app", tc.name, shards)
			}
			if n := outstanding(arenas.Access) + outstanding(arenas.Tx) + outstanding(arenas.Perf); n != 0 {
				t.Errorf("%s shards=%d: %d arena slab(s) never handed back", tc.name, shards, n)
			}
			if shards == 1 {
				if _, ok := reg.Snapshot().Counter("pipeline_events_total", obs.L("stage", "accesses")); !ok {
					t.Errorf("%s: Close did not fold the stage metrics", tc.name)
				}
			}
		}
	}
	if _, _, err := Run(context.Background(), Config{}, "no-such-app", 0.05, 2, 1); err == nil {
		t.Error("unknown app must fail")
	}
}
