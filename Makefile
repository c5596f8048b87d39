# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race check cover bench bench-json benchgate benchgate-baseline servegate servegate-baseline distchaos distgate distgate-baseline invertgate invertgate-baseline autotunegate autotunegate-baseline loadtest figures ablation scaling fuzz stress clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector packages: everything concurrent (telemetry counters, the
# omp runtime, kernels, the public API) plus the fault-tolerance layers
# (fault injection registry, verified recovery) whose tests exercise
# panic capture, cancellation and escalation under load, the core
# package whose cache-contention test hammers the sharded CollapseCache
# from concurrent goroutines, the observability plane whose tests
# scrape /metrics and /snapshot while a collapsed run mutates the
# registry, and the shard coordinator whose lease-expiry, speculation
# and crash-chaos tests are races by construction.
RACE_PKGS = ./internal/telemetry/ ./internal/omp/ ./internal/obs/ ./internal/kernels/ ./internal/faults/ ./internal/unrank/ ./internal/stress/ ./internal/core/ ./internal/serve/ ./internal/dist/ ./internal/autotune/ .

race:
	$(GO) test -race $(RACE_PKGS)

# Full pre-merge gate: formatting, vet, the whole suite, one pass of
# the engine benchmarks (`go test ./...` compiles benchmark bodies but
# never runs them), the differential stress harness, the bench-regression gate (which also
# smoke-runs the overhead suite), a short fuzz pass over every fuzz
# target, and the race detector over the concurrent packages.
check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -run '^$$' -bench 'Engines|SIMDAndWarp|Fig9' -benchtime 1x .
	$(GO) test -race $(RACE_PKGS)
	$(MAKE) stress
	$(MAKE) loadtest
	$(MAKE) distchaos
	$(MAKE) benchgate
	$(MAKE) invertgate
	$(MAKE) autotunegate
	$(MAKE) fuzz FUZZTIME=5s

# Daemon smoke soak: an in-process collapsed instance driven at 2x its
# admission rate for a couple of short phases, with every admitted
# answer differential-checked against sequential enumeration. Fails on
# any 5xx, any wrong answer, or if over-capacity load is not shed 429.
loadtest:
	$(GO) run ./cmd/loadgen -smoke -quick

# Bench-regression gate: one quick overhead run diffed against the
# committed BENCH_GATE.json baseline with cmd/benchdiff, exiting
# non-zero on regression. Only the machine-independent speedup ratios
# are gated (absolute ns/iter depend on the host the baseline was taken
# on) with a generous threshold sized for quick-mode noise; the full
# direction-aware per-metric diff is available manually, e.g.
#   go run ./cmd/benchdiff -old BENCH_PR4.json -new BENCH_NEW.json
# Refresh the baseline with `make benchgate-baseline` after intentional
# engine changes.
GATE_BASELINE = BENCH_GATE.json
GATE_FLAGS = -metrics speedup -threshold 75

benchgate:
	@if [ ! -f $(GATE_BASELINE) ]; then echo "no $(GATE_BASELINE); run 'make benchgate-baseline' first"; exit 1; fi
	$(GO) run ./cmd/benchfig -fig overhead -quick -reps 1 -json .bench_gate_new.json >/dev/null
	$(GO) run ./cmd/benchdiff -old $(GATE_BASELINE) -new .bench_gate_new.json $(GATE_FLAGS)
	@rm -f .bench_gate_new.json

benchgate-baseline:
	$(GO) run ./cmd/benchfig -fig overhead -quick -reps 1 -json $(GATE_BASELINE)

# Serving-trajectory regression gate: one quick loadgen run against an
# in-process daemon, diffed against the committed BENCH_PR7.json
# baseline. Only achieved_qps is gated (latency quantiles and shed rate
# depend on the host and on scheduler noise at 1s phases); the threshold
# is sized accordingly. Baseline and gate runs must share SERVE_FLAGS so
# the per-phase target_qps params line up.
SERVE_BASELINE = BENCH_PR7.json
SERVE_FLAGS = -quick -qps 200 -phases 0.5,1,2 -seed 1
SERVE_GATE_FLAGS = -metrics achieved_qps -threshold 75

servegate:
	@if [ ! -f $(SERVE_BASELINE) ]; then echo "no $(SERVE_BASELINE); run 'make servegate-baseline' first"; exit 1; fi
	$(GO) run ./cmd/loadgen $(SERVE_FLAGS) -json .bench_serve_new.json >/dev/null
	$(GO) run ./cmd/benchdiff -old $(SERVE_BASELINE) -new .bench_serve_new.json $(SERVE_GATE_FLAGS)
	@rm -f .bench_serve_new.json

servegate-baseline:
	$(GO) run ./cmd/loadgen $(SERVE_FLAGS) -json $(SERVE_BASELINE)

# Sharded-execution chaos gate: an execute-heavy loadgen run against an
# in-process daemon in sharded mode, with every Nth in-flight shard
# executor killed. Fails unless executors actually died, sharded answers
# came back, and every 2xx answer was exactly correct (differential
# check against sequential enumeration).
distchaos:
	$(GO) run ./cmd/loadgen -quick -qps 60 -phases 1 -mix execute=1 -p N=120 -chaos-kill-shard-every 5

# Shard-coordination regression gate: one quick distfor bench run diffed
# against the committed BENCH_PR8.json baseline. Only the clean-run
# throughput is gated (chaos/resume rows have injected failures whose
# cost is noise-dominated at quick sizes); the threshold is sized for
# quick-mode noise on a loaded host. Refresh with `make
# distgate-baseline` after intentional coordinator changes.
DIST_BASELINE = BENCH_PR8.json
DIST_GATE_FLAGS = -metrics miter_per_sec -threshold 75

distgate:
	@if [ ! -f $(DIST_BASELINE) ]; then echo "no $(DIST_BASELINE); run 'make distgate-baseline' first"; exit 1; fi
	$(GO) run ./cmd/distfor -bench -quick -json .bench_dist_new.json >/dev/null
	$(GO) run ./cmd/benchdiff -old $(DIST_BASELINE) -new .bench_dist_new.json $(DIST_GATE_FLAGS)
	@rm -f .bench_dist_new.json

distgate-baseline:
	$(GO) run ./cmd/distfor -bench -quick -json $(DIST_BASELINE)

# Inversion-throughput regression gate: one quick invert-suite run
# diffed against the committed BENCH_PR9.json baseline. Only the
# machine-independent speedup ratios (breakpoint-table and batched
# recovery vs per-pc binary search) are gated; absolute ns/recovery
# depend on the host. Refresh with `make invertgate-baseline` after
# intentional recovery-engine changes.
INVERT_BASELINE = BENCH_PR9.json
INVERT_GATE_FLAGS = -metrics speedup -threshold 75

invertgate:
	@if [ ! -f $(INVERT_BASELINE) ]; then echo "no $(INVERT_BASELINE); run 'make invertgate-baseline' first"; exit 1; fi
	$(GO) run ./cmd/benchfig -fig invert -reps 1 -json .bench_invert_new.json >/dev/null
	$(GO) run ./cmd/benchdiff -old $(INVERT_BASELINE) -new .bench_invert_new.json $(INVERT_GATE_FLAGS)
	@rm -f .bench_invert_new.json

invertgate-baseline:
	$(GO) run ./cmd/benchfig -fig invert -json $(INVERT_BASELINE)

# Autotuning regression gate: one quick autotune-suite run diffed
# against the committed BENCH_PR10.json baseline. Only the
# machine-independent ratios are gated — the planner's pick vs the best
# hand-picked schedule (auto_vs_best, lower is better) and the worst
# hand pick vs the planner (worst_vs_auto, higher is better); absolute
# wall times depend on the host. Refresh with `make
# autotunegate-baseline` after intentional planner/cost-model changes.
AUTOTUNE_BASELINE = BENCH_PR10.json
AUTOTUNE_GATE_FLAGS = -metrics vs_best,vs_auto -threshold 75

autotunegate:
	@if [ ! -f $(AUTOTUNE_BASELINE) ]; then echo "no $(AUTOTUNE_BASELINE); run 'make autotunegate-baseline' first"; exit 1; fi
	$(GO) run ./cmd/benchfig -fig autotune -reps 1 -json .bench_autotune_new.json >/dev/null
	$(GO) run ./cmd/benchdiff -old $(AUTOTUNE_BASELINE) -new .bench_autotune_new.json $(AUTOTUNE_GATE_FLAGS)
	@rm -f .bench_autotune_new.json

autotunegate-baseline:
	$(GO) run ./cmd/benchfig -fig autotune -json $(AUTOTUNE_BASELINE)

# Differential stress soak: seedable random nests through every
# schedule and every precision-ladder tier, with fault injection,
# diffing visit sets against sequential enumeration.
STRESS_SEEDS ?= 12

stress:
	$(GO) run ./cmd/stresstool -seeds $(STRESS_SEEDS) -faults

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable engine overhead report (fixed protocol: bench sizes,
# best of 3 reps, 1 thread): original nest vs per-iteration vs
# range-batched vs recover-every, per kernel × schedule. The compile
# suite records the compile-path throughput (cold serial vs parallel
# fan-out vs cached) per kernel.
bench-json:
	$(GO) run ./cmd/benchfig -fig overhead -reps 3 -json BENCH_PR4.json
	$(GO) run ./cmd/benchfig -fig compile -reps 3 -json BENCH_PR5.json

# Regenerate the paper's figures (EXPERIMENTS.md documents the recorded runs).
figures:
	$(GO) run ./cmd/benchfig -fig all

ablation:
	$(GO) run ./cmd/benchfig -fig ablation

scaling:
	$(GO) run ./cmd/benchfig -fig scaling

# Short fuzzing sessions over every fuzz target: the two parsers, the
# poly compiler, the whole-pipeline rank/unrank round trip, the
# generated-nest precision-ladder differential, and the cache signature's
# alpha-renaming invariance.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/poly/
	$(GO) test -fuzz=FuzzCompile -fuzztime=$(FUZZTIME) ./internal/poly/
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/cparse/
	$(GO) test -fuzz=FuzzRankUnrank -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzStressNest -fuzztime=$(FUZZTIME) ./internal/stress/
	$(GO) test -fuzz=FuzzNestSignature -fuzztime=$(FUZZTIME) ./internal/core/

clean:
	$(GO) clean ./...
