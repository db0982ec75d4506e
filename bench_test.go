// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the exhibit end to end), plus ablation
// benchmarks for the design choices called out in DESIGN.md §5.
//
// The exhibit benchmarks run at a reduced problem scale so that
// `go test -bench=.` completes in minutes; `cmd/nvreport` regenerates the
// calibrated full-scale exhibits.
package bench

import (
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/cpusim"
	"nvscavenger/internal/dramsim"
	"nvscavenger/internal/experiments"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/pipeline"
	"nvscavenger/internal/trace"

	_ "nvscavenger/internal/apps/cammini"
	_ "nvscavenger/internal/apps/gtcmini"
	_ "nvscavenger/internal/apps/nekmini"
	_ "nvscavenger/internal/apps/s3dmini"
)

func benchOptions() []experiments.Option {
	return []experiments.Option{experiments.WithScale(0.1), experiments.WithIterations(5)}
}

// mustMem builds a MemorySystem from a config the benchmark knows is valid.
func mustMem(b *testing.B, cfg dramsim.Config) *dramsim.MemorySystem {
	b.Helper()
	m, err := dramsim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// ---- exhibit benchmarks ----------------------------------------------

func BenchmarkTable1Footprints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		rows, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkTable5StackAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		rows, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkFigure2CamStackFrames(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		recs, fig, err := s.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) == 0 || fig.CountOver10 == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure3to6Objects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		for _, app := range experiments.AppNames {
			recs, err := s.ObjectFigure(app)
			if err != nil {
				b.Fatal(err)
			}
			if len(recs) == 0 {
				b.Fatal("no objects")
			}
		}
	}
}

func BenchmarkFigure7UsageCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		cdfs, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(cdfs) != 3 {
			b.Fatal("short figure")
		}
	}
}

func BenchmarkFigure8to11Variance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		for _, app := range experiments.AppNames {
			ratio, rate, err := s.VarianceFigure(app)
			if err != nil {
				b.Fatal(err)
			}
			if len(ratio) == 0 || len(rate) == 0 {
				b.Fatal("empty distribution")
			}
		}
	}
}

func BenchmarkTable6Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		rows, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkFigure12LatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		rows, err := s.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("short figure")
		}
	}
}

func BenchmarkPlacementStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions()...)
		plans, err := s.Placement()
		if err != nil {
			b.Fatal(err)
		}
		if len(plans) != 4 {
			b.Fatal("short study")
		}
	}
}

// ---- ablation benchmarks ----------------------------------------------
//
// Each pair isolates one design decision from §III-D of the paper or from
// this reproduction's simulators.

// runInstrumented executes the GTC proxy under a tracer configuration and
// reports accesses/op.
func runInstrumented(b *testing.B, cfg memtrace.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		app, err := apps.New("gtc", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		tr := memtrace.New(cfg)
		if err := apps.Run(app, tr, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the LRU software object cache on the attribution path.
func BenchmarkAblationObjectCacheOn(b *testing.B) {
	runInstrumented(b, memtrace.Config{ObjectCacheSize: 8})
}

func BenchmarkAblationObjectCacheOff(b *testing.B) {
	runInstrumented(b, memtrace.Config{ObjectCacheSize: -1})
}

// Ablation: fast (whole-stack) vs slow (per-frame) stack attribution.
func BenchmarkAblationStackFast(b *testing.B) {
	runInstrumented(b, memtrace.Config{StackMode: memtrace.FastStack})
}

func BenchmarkAblationStackSlow(b *testing.B) {
	runInstrumented(b, memtrace.Config{StackMode: memtrace.SlowStack})
}

// Ablation: trace staging buffer size in front of the cache simulator.
func benchBufferSize(b *testing.B, size int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		app, err := apps.New("s3d", 0.05)
		if err != nil {
			b.Fatal(err)
		}
		cacheCfg := cachesim.PaperConfig()
		st := pipeline.MustBuild(pipeline.Config{Cache: &cacheCfg, BufferSize: size})
		if err := apps.Run(app, st.Tracer, 2); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBuffer64(b *testing.B)  { benchBufferSize(b, 64) }
func BenchmarkAblationBuffer4K(b *testing.B)  { benchBufferSize(b, 4096) }
func BenchmarkAblationBuffer16K(b *testing.B) { benchBufferSize(b, 16384) }

// Ablation: open-page vs closed-page row policy in the power simulator.
func benchRowPolicy(b *testing.B, policy dramsim.RowPolicy) {
	b.Helper()
	txs := make([]trace.Transaction, 0, 100000)
	for i := 0; i < 100000; i++ {
		txs = append(txs, trace.Transaction{Addr: uint64(i%4096) * 64, Write: i%4 == 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := mustMem(b, dramsim.Config{
			Geometry: dramsim.PaperGeometry(),
			Profile:  dramsim.DDR3(),
			Policy:   policy,
		})
		for _, t := range txs {
			if err := m.Transaction(t); err != nil {
				b.Fatal(err)
			}
		}
		rep := m.Report()
		if rep.TotalMW <= 0 {
			b.Fatal("no power")
		}
	}
}

func BenchmarkAblationOpenPage(b *testing.B)   { benchRowPolicy(b, dramsim.OpenPage) }
func BenchmarkAblationClosedPage(b *testing.B) { benchRowPolicy(b, dramsim.ClosedPage) }

// Ablation: effect of cache filtering on the priced memory traffic — raw
// access trace vs post-cache transactions into the power model.
func BenchmarkAblationUnfilteredPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := apps.New("gtc", 0.05)
		if err != nil {
			b.Fatal(err)
		}
		m := mustMem(b, dramsim.PaperConfig(dramsim.DDR3()))
		sink := trace.SinkFunc(func(batch []trace.Access) error {
			for _, a := range batch {
				if err := m.Transaction(trace.Transaction{Addr: a.Addr &^ 63, Write: a.IsWrite()}); err != nil {
					return err
				}
			}
			return nil
		})
		tr := memtrace.New(memtrace.Config{Sink: sink})
		if err := apps.Run(app, tr, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFilteredPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := apps.New("gtc", 0.05)
		if err != nil {
			b.Fatal(err)
		}
		m := mustMem(b, dramsim.PaperConfig(dramsim.DDR3()))
		cacheCfg := cachesim.PaperConfig()
		st := pipeline.MustBuild(pipeline.Config{Cache: &cacheCfg, TxSinks: []trace.TxSink{m}})
		if err := apps.Run(app, st.Tracer, 2); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the stream prefetcher in the performance model.
func benchPrefetcher(b *testing.B, streams int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := cpusim.PaperConfig(100)
		cfg.PrefetchStreams = streams
		c := cpusim.MustNew(cfg)
		app, err := apps.New("nek5000", 0.1)
		if err != nil {
			b.Fatal(err)
		}
		// The core consumes the tracer's batched performance-event stream.
		tr := memtrace.New(memtrace.Config{Perf: c})
		if err := apps.Run(app, tr, 1); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.Cycles(), "cycles")
	}
}

func BenchmarkAblationPrefetcherOn(b *testing.B)  { benchPrefetcher(b, 16) }
func BenchmarkAblationPrefetcherOff(b *testing.B) { benchPrefetcher(b, 0) }

// Ablation: cache replacement policy (Table II specifies LRU).
func benchReplacement(b *testing.B, r cachesim.Replacement) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		app, err := apps.New("cam", 0.05)
		if err != nil {
			b.Fatal(err)
		}
		cfg := cachesim.PaperConfig()
		cfg.L1.Replacement = r
		cfg.L2.Replacement = r
		st := pipeline.MustBuild(pipeline.Config{Cache: &cfg})
		if err := apps.Run(app, st.Tracer, 2); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.Hierarchy.L2Stats().MissRatio()*100, "L2miss%")
	}
}

func BenchmarkAblationReplacementLRU(b *testing.B)    { benchReplacement(b, cachesim.LRU) }
func BenchmarkAblationReplacementFIFO(b *testing.B)   { benchReplacement(b, cachesim.FIFO) }
func BenchmarkAblationReplacementRandom(b *testing.B) { benchReplacement(b, cachesim.RandomRepl) }

// Ablation: in-order vs FR-FCFS transaction scheduling in the memory
// controller, on an interleaved-row stream that rewards reordering.
func benchScheduling(b *testing.B, s dramsim.Scheduling) {
	b.Helper()
	txs := make([]trace.Transaction, 0, 50000)
	for i := 0; i < 50000; i++ {
		row := uint64(i%2) * (1 << 26)
		txs = append(txs, trace.Transaction{Addr: row + uint64(i/2%64)*64, Write: i%4 == 0})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := dramsim.PaperConfig(dramsim.DDR3())
		cfg.Scheduling = s
		m := mustMem(b, cfg)
		for _, t := range txs {
			if err := m.Transaction(t); err != nil {
				b.Fatal(err)
			}
		}
		rep := m.Report()
		b.ReportMetric(rep.RowHitRatio()*100, "rowhit%")
	}
}

func BenchmarkAblationInOrder(b *testing.B) { benchScheduling(b, dramsim.InOrder) }
func BenchmarkAblationFRFCFS(b *testing.B)  { benchScheduling(b, dramsim.FRFCFS) }

// Ablation: sampled vs full instrumentation (§III-D rejects sampling; this
// pair quantifies the speed it would buy and pairs with the memtrace tests
// showing the object coverage it loses).
func BenchmarkAblationSamplingFull(b *testing.B) {
	runInstrumented(b, memtrace.Config{})
}

func BenchmarkAblationSampling64(b *testing.B) {
	runInstrumented(b, memtrace.Config{Sample: memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: 64}})
}
