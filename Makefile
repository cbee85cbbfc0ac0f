# Verify loop. `make check` is the gate every change must pass: build,
# vet, the full test suite, the race detector over the atomic
# telemetry counters and the concurrent click-time cache, the chaos
# suite (fault-injected sources under concurrent load), and the
# parallel-build determinism suite.
GO ?= go

.PHONY: build test vet race bench bench-smoke bench-e2e chaos crash testpar fuzz load soak ledger check explain-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The root package's 10k-publication property test re-evaluates its
# site on every edit and runs ~17 minutes under -race on a 2-vCPU host,
# past go test's default 10-minute per-package timeout.
race:
	$(GO) test -race -timeout 60m ./...

bench:
	$(GO) test -bench=. -benchmem

# Benchmark smoke: one iteration of every benchmark, so a refactor
# that breaks a benchmark's setup (or its acceptance metric wiring)
# fails CI instead of rotting until the next manual `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# End-to-end benchmark gate at full scale: one short untraced run of
# every BENCHMARK.json workload through e2ebench/run.sh. It times
# nothing and bounds no metric; it fails unless each run's final JSON
# line reports "correct":true and "failed":0. (The e2ebench package
# test checks the same gate at 120 records.)
BENCH_E2E_WORKLOADS := $(shell sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
bench-e2e:
	@test -n "$(BENCH_E2E_WORKLOADS)" || { echo "bench-e2e: no workloads found in BENCHMARK.json"; exit 1; }
	@set -e; for w in $(BENCH_E2E_WORKLOADS); do \
		echo "== $$w"; \
		line=$$(bash e2ebench/run.sh --workload $$w --seconds 3 --seed 1 | tail -n 1); \
		echo "$$line"; \
		case "$$line" in \
		*'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-e2e: $$w failed its correctness gate"; exit 1;; \
		esac; \
	done

# Fault-injection suite: flaky/hanging sources and overload against
# the full serving stack, twice, under the race detector.
chaos:
	$(GO) test -race -count=2 -run 'Chaos' ./internal/server/

# Crash-safety suite: the crash-at-every-write-point sweeps (atomic
# publication over example sites, repository Save), fault-injected
# ENOSPC / fsync-EIO publishes, recovery, and corruption detection —
# all under the race detector.
crash:
	$(GO) test -race -run 'Crash|Fault|Publish|Recover|Verify|ENOSPC|EIO|Atomic|Corrupt' ./internal/fsx/ ./internal/publish/ ./internal/repository/ ./internal/sitegen/ .

# Parallel-build determinism suite: the worker pool's property tests,
# the concurrent generator/evaluator/materializer, the example sites at
# workers 1/4/16, the delta-rebuild suites (random edit scripts,
# incremental vs. from-scratch, byte-identical at workers 1/4/16), the
# mediated rebuild property test (BibTeX edit scripts through the
# mediator and Rebuild, pages and ETags equal to a fresh build at
# workers 1/4), and the provenance suite (on-demand page provenance
# agrees with the pages selective rebuilds re-render and reuse), all
# under the race detector, twice.
testpar:
	$(GO) test -race -count=2 ./internal/pool/... ./internal/sitegen/... ./internal/struql/... ./internal/incremental/...
	$(GO) test -race -count=2 -run 'Deterministic|Parallel|Golden' ./internal/core/ ./examples/...
	$(GO) test -race -count=2 -run '^TestPropertyMediatedRebuild$$' .
	$(GO) test -race -count=2 -run '^TestProvenanceTracksDeltaRebuilds$$' .
	$(GO) test -race -count=2 -timeout 90m -run 'Differential' .

# Serving-edge load smoke: the deterministic load-generation
# conformance harness (Zipf clients, conditional revalidation, fault
# injection) against the full serving stack, under the race detector —
# the hit-ratio, p99 and RPS floors plus the ETag differential suite.
load:
	$(GO) test -race -run 'LoadConformance|ETag|HTTPConformance|RunLoad' . ./internal/server/ ./internal/workload/

# Fuzz smoke: run each language's fuzz target briefly (Go allows one
# -fuzz pattern per invocation). Longer runs: raise -fuzztime.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzStruQLParse$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzDataDefParse$$' -fuzztime $(FUZZTIME) .

# Long-haul incremental maintenance: 500 random edits against one
# evolving site, one selective rebuild each, with byte-identity
# checkpoints against from-scratch rebuilds, under the race detector.
soak:
	$(GO) test -race -run 'SoakDifferential' -timeout 30m .

# Build-plane observability suite: the ledger package under the race
# detector (rotation, recovery, the crash-at-every-op sweep, the
# watchdog), the serve-cycle end-to-end test (build IDs observable in
# /debug/ledger, the access log, /debug/ops, the edge metrics, and
# `strudel history`/`strudel top`), the refresh cycle's unit tests
# (failed-publish sweep, freshness, backoff, violation logging on fake
# clocks and fault-injecting filesystems), and the ledger-overhead A/B
# guard on the delta-rebuild benchmark (<3% budget, 80 cycles per arm).
ledger:
	$(GO) test -race ./internal/ledger/
	$(GO) test -race -run 'Ledger|History|TopRenders|Cycle' ./cmd/strudel/
	$(GO) test -run '^$$' -bench 'LedgerOverhead' -benchtime 10x .

# Introspection demo: the profiled plan of the CNN example site, no
# manifest required. Try also: -example org, -optimize, -json.
explain-demo:
	$(GO) run ./cmd/strudel explain -example cnn

# bench-smoke is not part of check (CI runs it as its own step); run it
# directly after touching benchmark code.
check: build vet test race chaos crash testpar load fuzz ledger
