# uvmdiscard build targets. Everything is stdlib Go; no external deps.

GO ?= go

.PHONY: all build test test-short test-race bench bench-json bench-check bench-harness profile examples repro csv ci lint lint-baseline chaos chaos-fleet smoke-service fuzz clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Static analysis: formatting, vet, and the project's own typed analyzers
# (cmd/uvmlint: locksafe, simdet, queuestate, errsink, goroleak, lockorder,
# discardproto — see DESIGN.md §13).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/uvmlint

# The lint baseline gate: the multichecker's machine-readable output must
# be byte-identical to the committed (empty) baseline, so a new finding —
# or a drift in the JSON encoding itself — fails even if someone weakens
# the exit-code path.
lint-baseline:
	$(GO) run ./cmd/uvmlint -format=json . | diff -u lint.baseline.json -

# Full suite under the race detector — the gate on the parallel experiment
# runner's concurrency claims.
test-race:
	$(GO) test -race ./...

# Everything CI runs (.github/workflows/ci.yml mirrors this target).
ci: lint lint-baseline
	$(GO) build ./...
	$(MAKE) examples
	$(GO) test -race ./...

# Full suite, including the full-scale reproduction gates (~1 min).
test:
	$(GO) test ./...

# Unit tests only (seconds).
test-short:
	$(GO) test -short ./...

# The chaos harness: randomized workloads under randomized seeded fault
# schedules with the runtime sanitizer at stride 1 (internal/core
# chaos_test.go). CHAOS_SEED=n replays a single seed; unset runs the
# built-in set.
chaos:
ifdef CHAOS_SEED
	$(GO) test -race -count=1 -run TestChaosRandomFaults ./internal/core/ -chaos.seed $(CHAOS_SEED) -v
else
	$(GO) test -race -count=1 -run TestChaosRandomFaults ./internal/core/ -v
endif

# The fleet chaos harness: an in-process coordinator and worker pool over
# real HTTP with seeded worker kills mid-job and a coordinator crash/restart
# from its journal (internal/fleet chaos_test.go). Asserts every job
# completes exactly once, byte-identical to a single-process run.
# FLEET_SEED=n replays a single seed; unset runs the built-in set.
chaos-fleet:
ifdef FLEET_SEED
	$(GO) test -race -count=1 -run TestChaosFleet ./internal/fleet/ -fleet.seed $(FLEET_SEED) -v
else
	$(GO) test -race -count=1 -run TestChaosFleet ./internal/fleet/ -v
endif

# End-to-end smokes against the real binaries: the uvmsimd kill/resume
# crash-safety test (smoke_test.go), the /metrics + SSE-progress
# observability test (metrics_smoke_test.go), and the fleet smoke — one
# uvmfleet coordinator, two uvmsimd -worker processes, SIGKILL one worker
# mid-lease, every job still completes byte-identically elsewhere.
smoke-service:
	$(GO) test -count=1 -run 'TestSmoke' ./cmd/uvmsimd ./cmd/uvmfleet -v

# Fuzz smoke: run every fuzz target for FUZZTIME each (go test -fuzz takes
# one target in one package per run). Plain `go test` only replays the seed
# corpora; this explores past them. A failing input is written under the
# package's testdata/fuzz/ and replays in every later `go test`.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/faultinject
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime $(FUZZTIME) ./internal/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzAdvise$$' -fuzztime $(FUZZTIME) ./internal/advisor

# One testing.B benchmark per paper table/figure + ablations + extensions.
bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the committed performance baseline: run the quick-mode paper
# benchmarks and convert the output to JSON (cmd/benchjson). Three cold
# runs per benchmark are recorded — single cold iterations are noisy on
# small machines, and bench-check compares per-benchmark minima on both
# sides, which is stable. Each PR writes its own snapshot next to its
# predecessor's so regressions are attributable (override with
# BENCH_OUT=BENCH_PR<n>.json). Compare against a branch with:
#   jq -r '.benchmarks[].raw' BENCH_PR6.json > old.txt && benchstat old.txt new.txt
BENCH_OUT ?= BENCH_PR17.json
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Gate the paper benchmarks against the committed baseline. Two separate
# thresholds: allocs/op is deterministic (identical across runs and
# machines), so it sits tight at 1.10 — the load-bearing >10% regression
# gate. ns/op is compared as min-of-3 cold runs on both sides, but on
# small/shared machines even that minimum drifts ~1.3x run to run, so its
# default absorbs measured same-code noise; tighten BENCH_THRESHOLD on
# quiet dedicated hardware, or raise it (CI uses 3.0) where the hardware
# differs from the baseline host's.
BENCH_BASELINE ?= BENCH_PR17.json
BENCH_THRESHOLD ?= 1.60
BENCH_ALLOC_THRESHOLD ?= 1.10
bench-check:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson -check $(BENCH_BASELINE) \
			-threshold $(BENCH_THRESHOLD) -alloc-threshold $(BENCH_ALLOC_THRESHOLD)

# Compile and test the benchmark harness. _perfbench has its own go.mod,
# so the root `go build ./...` never compiles it: renaming an API it calls
# (fir.RunCheckpointed, the workload Run/DefaultConfig functions,
# experiments.All, fleet.RunExperiment) would otherwise break only when the
# benchmark runs. Its tests check the op plan and diff every op's output
# against _perfbench/golden.json (~10 s).
bench-harness:
	cd _perfbench && GOPROXY=off $(GO) vet . && GOPROXY=off $(GO) test -count=1 .

# CPU+heap profiles of a driver-loop-dominated run (fully oversubscribed
# FIR), the workflow behind the §15 hot-path work:
#   make profile && go tool pprof -top out/cpu.pprof
PROFILE_ARGS ?= -workload fir -ovsp 400
profile:
	mkdir -p out
	$(GO) run ./cmd/uvmsim $(PROFILE_ARGS) -cpuprofile out/cpu.pprof -memprofile out/mem.pprof
	@echo "profiles written: out/cpu.pprof out/mem.pprof (go tool pprof -top out/cpu.pprof)"

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/streaming
	$(GO) run ./examples/sorting
	$(GO) run ./examples/hashjoin
	$(GO) run ./examples/inference
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/advisor
	$(GO) run ./examples/deeplearning -model rnn -batch 240

# Regenerate every table and figure at the paper's full problem sizes.
repro:
	$(GO) run ./cmd/paperbench -chart

# Emit per-table CSVs for external plotting.
csv:
	$(GO) run ./cmd/paperbench -csv out/

clean:
	$(GO) clean ./...
	rm -rf out/
