GO ?= go

.PHONY: ci lint vet build test race race-obs race-pipeline race-sampling race-served race-shard race-journal bench bench-snapshot bench-compare bench-e2e-test chaos report

ci: lint vet build race-obs race-pipeline race-sampling race-served race-shard race-journal race bench bench-e2e-test chaos

# Project-native static analysis: the syntactic passes (determinism,
# metric naming, the error contract, the sticky-sink contract) plus the
# flow-sensitive tier (arenaown, lockorder, ctxflow), over every package.
# -stats prints per-pass wall time and finding counts; non-zero on any
# finding; suppress at the site with //nvlint:ignore <pass> <reason>.
lint:
	$(GO) run ./cmd/nvlint -stats ./...

# go vet does not walk cmd/nvlint's testdata fixtures, so also prove the
# lint tool itself builds.
vet:
	$(GO) vet ./...
	$(GO) build -o /dev/null ./cmd/nvlint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The metrics registry and the run engine are the two packages whose hot
# paths are exercised concurrently; run them race-enabled twice so the
# schedule varies between runs.
race-obs:
	$(GO) test -race -count=2 ./internal/obs ./internal/runner

# The pipeline layer shares one stack across stages; run its tests
# race-enabled so combinator and Close paths stay clean under the detector.
race-pipeline:
	$(GO) test -race -count=2 ./internal/pipeline

# Sampled tracing promises byte-identical output at any -jobs count (the
# PRNG is seeded and per-tracer); run the sampling, estimator and
# profiler-error tests race-enabled twice so the worker schedule varies.
race-sampling:
	$(GO) test -race -count=2 -run 'Sampl|Estimat|ProfilerError' ./internal/memtrace ./internal/experiments

# The service layer is all about concurrency — shared run caches, the
# bounded queue, drain vs submit — so its tests run race-enabled twice to
# vary the schedule, daemon included.
race-served:
	$(GO) test -race -count=2 ./internal/served ./cmd/nvserved

# Durability gate: the write-ahead-log package race-enabled twice, then
# the seeded crash-point sweep — kill the journal at every journaled
# transition, restart from the state dir, and require byte-identical
# reports (internal/served/crash_test.go) — plus the daemon's state-dir
# restart test.
race-journal:
	$(GO) test -race -count=2 ./internal/journal
	$(GO) test -race -run 'Crash|Recovery|Journal|CleanRestart|Healthz|StateDir' ./internal/served ./cmd/nvserved

# Intra-run sharding promises byte-identical merged output at any shard
# count; run the shards-1-vs-K identity tests race-enabled twice so the
# merge and arena hand-off paths stay clean under a varying schedule.
race-shard:
	$(GO) test -race -count=2 -run 'TestSharded|TestShards' ./internal/pipeline ./internal/experiments ./internal/served

# One pass over the pipeline-throughput and instrumentation-overhead
# benchmarks: a smoke check that the fused dataflow, with and without its
# stage metrics, keeps working, not a timing run.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkPipeline|BenchmarkAblation(ObjectCache|Buffer)' -benchtime=1x -count=1 ./internal/pipeline .

# Record the pipeline performance baseline: run the throughput,
# instrumentation-overhead (metrics off vs on, one fused stack either way),
# sampled-tracing and sharding benchmarks at full benchtime and write the
# parsed results to BENCH_PIPELINE.json (committed, so regressions show
# up as diffs).  Not part of ci — timing runs need a quiet machine.
bench-snapshot:
	$(GO) test -run='^$$' -bench='BenchmarkPipeline(Throughput|InstrumentationOverhead|SampledTracing|Sharded)' -count=1 ./internal/pipeline \
		| $(GO) run ./cmd/nvbench -out BENCH_PIPELINE.json

# Compare a fresh timing run against the committed baseline: one row per
# benchmark and metric with the relative delta.  Report-only — timing
# noise on a shared machine is not a CI failure; pass a threshold by hand
# (`go run ./cmd/nvbench -compare BENCH_PIPELINE.json -threshold 20`) to
# gate.
bench-compare:
	$(GO) test -run='^$$' -bench='BenchmarkPipeline(Throughput|InstrumentationOverhead|SampledTracing|Sharded)' -count=1 ./internal/pipeline \
		| $(GO) run ./cmd/nvbench -compare BENCH_PIPELINE.json

# The end-to-end benchmark is its own module (benchmark/go.mod), so the
# root `go test ./...` skips it; run its tests so API changes in the layers
# it drives cannot break it unnoticed.
bench-e2e-test:
	cd benchmark && $(GO) test ./...

# Chaos gate: the fault-injection and resilience packages race-enabled,
# plus one seeded degraded sweep — it must complete (exit 0) with partial
# exhibits rather than abort.
chaos:
	$(GO) test -race -count=2 ./internal/faults ./internal/resilience
	$(GO) run ./cmd/nvreport -scale 0.05 -iterations 3 -only table1,table5 \
		-fault sink:every=3,seed=7 -progress=false >/dev/null

report:
	$(GO) run ./cmd/nvreport
