package pipeline

import (
	"testing"

	"nvscavenger/internal/apps"
	"nvscavenger/internal/cachesim"
	"nvscavenger/internal/memtrace"
	"nvscavenger/internal/obs"
	"nvscavenger/internal/trace"

	_ "nvscavenger/internal/apps/gtcmini"
)

// txStatsSink is a concrete batch consumer doing token per-transaction work
// (classify + mix the address) so the throughput arms compare delivery
// discipline, not an empty call.  It is a named type on purpose: the fused
// pipeline hands batches to concrete consumers, and the compiler can only
// devirtualize and inline the element loop when the callee is concrete.
type txStatsSink struct{ reads, writes, mix uint64 }

func (c *txStatsSink) FlushTx(batch []trace.Transaction) error {
	for _, t := range batch {
		if t.Write {
			c.writes++
		} else {
			c.reads++
		}
		c.mix ^= t.Addr
	}
	return nil
}

// BenchmarkPipelineThroughput measures the hand-off cost at the transaction
// boundary of the fused pipeline on the cache-filtered GTC trace, captured
// once up front so the app and tracer stay out of the timed region.
//
// The headline "batched" arm is the steady-state unit of the dataflow: one op
// delivers one full batch (trace.DefaultTxBufferSize transactions —
// the hierarchy's staging-buffer flush) to the concrete consumer.  That is
// the per-batch cost the ISSUE's contract prices — one call per batch — and
// it must run allocation-free.  "full-trace" replays the entire captured
// trace per op (the original benchmark shape, kept for cross-snapshot
// trajectory).
func BenchmarkPipelineThroughput(b *testing.B) {
	app, err := apps.New("gtc", 0.3)
	if err != nil {
		b.Fatal(err)
	}
	cacheCfg := cachesim.PaperConfig()
	st := MustBuild(Config{Cache: &cacheCfg, CaptureTx: true})
	if err := apps.Run(app, st.Tracer, 5); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	txs := st.Transactions()
	if len(txs) < trace.DefaultTxBufferSize {
		b.Fatalf("trace too short: %d transactions", len(txs))
	}
	batch := txs[:trace.DefaultTxBufferSize]

	b.Run("batched", func(b *testing.B) {
		var sink trace.TxSink = &txStatsSink{}
		b.ReportMetric(float64(len(batch)), "tx")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sink.FlushTx(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-trace", func(b *testing.B) {
		var sink trace.TxSink = &txStatsSink{}
		b.ReportMetric(float64(len(txs)), "tx")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(txs); off += trace.DefaultTxBufferSize {
				end := min(off+trace.DefaultTxBufferSize, len(txs))
				if err := sink.FlushTx(txs[off:end]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPipelineInstrumentationOverhead measures what stage metrics cost
// on the same workload: metrics off versus metrics on.  Both arms run the
// same fused stack; "on" only adds the fold at Close.
func BenchmarkPipelineInstrumentationOverhead(b *testing.B) {
	run := func(b *testing.B, cfg Config) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			app, err := apps.New("gtc", 0.1)
			if err != nil {
				b.Fatal(err)
			}
			cacheCfg := cachesim.PaperConfig()
			cfg.Cache = &cacheCfg
			cfg.CaptureTx = true
			st := MustBuild(cfg)
			if err := apps.Run(app, st.Tracer, 3); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, Config{}) })
	b.Run("on", func(b *testing.B) { run(b, Config{Metrics: obs.NewRegistry()}) })
}

// BenchmarkPipelineSampledTracing measures what sampled tracing buys at the
// pipeline level: the full-instrumentation gtc run against seeded sampled
// runs of each discipline at a common rate.  The app always executes every
// reference (instructions retire regardless), so the delta is the cost the
// observation path — attribution, cache simulation, transaction capture —
// no longer pays for sampled-out references.
func BenchmarkPipelineSampledTracing(b *testing.B) {
	run := func(b *testing.B, spec memtrace.SampleSpec) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			app, err := apps.New("gtc", 0.1)
			if err != nil {
				b.Fatal(err)
			}
			cacheCfg := cachesim.PaperConfig()
			st := MustBuild(Config{Sample: spec, Cache: &cacheCfg, CaptureTx: true})
			if err := apps.Run(app, st.Tracer, 3); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, memtrace.SampleSpec{}) })
	b.Run("period=64", func(b *testing.B) {
		run(b, memtrace.SampleSpec{Mode: memtrace.SamplePeriodic, Rate: 64})
	})
	b.Run("bernoulli=64", func(b *testing.B) {
		run(b, memtrace.SampleSpec{Mode: memtrace.SampleBernoulli, Rate: 64, Seed: 7})
	})
	b.Run("bytes=4096", func(b *testing.B) {
		run(b, memtrace.SampleSpec{Mode: memtrace.SampleBytes, Rate: 4096, Seed: 7})
	})
}
