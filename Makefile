GO ?= go

.PHONY: ci lint vet build test race race-obs race-pipeline race-sampling race-served race-journal fuzz-smoke bench bench-e2e-test chaos report

ci: lint vet build race-obs race-pipeline race-sampling race-served race-journal race fuzz-smoke bench bench-e2e-test chaos

# Project-native static analysis: the syntactic passes (determinism,
# metric naming, the error contract, the sticky-sink contract) plus the
# flow-sensitive tier (lockorder, ctxflow), over every package.
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

# Fuzz every intake parser briefly, one target per line (go test -fuzz
# takes one target per package).  The jobs-API spec decoder: no input
# panics, no spec asking for more than one shard per run is accepted, and
# every accepted spec's normalized form survives an encode/decode round
# trip.  The sample and fault spec parsers: no input panics, and every
# accepted spec parses back from its canonical String unchanged.  The
# trace-file reader: no input panics, and every record it returns survives
# a Writer round trip unchanged.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeJobSpec -fuzztime 5s ./internal/experiments
	$(GO) test -run '^$$' -fuzz FuzzParseSampleSpec -fuzztime 5s ./internal/memtrace
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime 5s ./internal/faults
	$(GO) test -run '^$$' -fuzz FuzzNewReader -fuzztime 5s ./internal/trace

# One pass over the pipeline-throughput and instrumentation-overhead
# benchmarks: a smoke check that the fused dataflow, with and without its
# stage metrics, keeps working, not a timing run.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkPipeline|BenchmarkAblation(ObjectCache|Buffer)' -benchtime=1x -count=1 ./internal/pipeline .

# The end-to-end benchmark is its own module (benchmark/go.mod), so the
# root `go test ./...` skips it; run its tests so API changes in the layers
# it drives cannot break it unnoticed.
bench-e2e-test:
	cd benchmark && $(GO) test ./...

# Chaos gate: the fault-injection and run-engine packages race-enabled,
# plus one seeded degraded sweep — it must complete (exit 0) with partial
# exhibits rather than abort.
chaos:
	$(GO) test -race -count=2 ./internal/faults ./internal/runner
	$(GO) run ./cmd/nvreport -scale 0.05 -iterations 3 -only table1,table5 \
		-fault sink:every=3,seed=7 -progress=false >/dev/null
	@# Seeded degraded reports must not depend on scheduling: each spec's
	@# report at -jobs 1 and -jobs 4 is byte-identical apart from line 2
	@# (the generation timestamp).
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/nvreport" ./cmd/nvreport; \
	for spec in "fig12 perf:every=5,seed=7" "sampling,profilererror worker:prob=0.5,seed=9"; do \
		set -- $$spec; \
		for j in 1 4; do \
			"$$d/nvreport" -scale 0.05 -iterations 3 -progress=false -jobs $$j \
				-only $$1 -fault $$2 > "$$d/raw$$j.txt"; \
			sed 2d "$$d/raw$$j.txt" > "$$d/j$$j.txt"; \
		done; \
		cmp "$$d/j1.txt" "$$d/j4.txt" || { echo "chaos: -only $$1 -fault $$2 differs between -jobs 1 and -jobs 4"; exit 1; }; \
		echo "chaos: -only $$1 -fault $$2 identical at -jobs 1 and -jobs 4"; \
	done

report:
	$(GO) run ./cmd/nvreport
