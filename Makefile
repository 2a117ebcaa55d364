# Reproducible one-liners for the graphrealize reproduction.
#
#   make build          compile everything
#   make test           tier-1 verify: build + full test suite
#   make lint           grlint analyzer suite over ./... (DESIGN.md §12)
#   make ci             local approximation of the CI gates: fmt, vet, lint, test, race, perfbench
#   make race           race-test every package
#   make bench          full benchmark pass (benchstat-comparable output)
#   make sweep          multi-seed realization sweep on all cores
#   make tables         regenerate every experiment table (quick scale)
#   make serve          run the HTTP realization service
#   make loadgen        drive a running service with mixed traffic
#   make bench-compare  bench HEAD vs BASE and gate like CI does
#   make bench-head     bench the worktree into BENCH_HEAD_TXT
#   make bench-base     bench BASE=<rev> into BENCH_BASE_TXT
#   make bench-gate     gate two bench outputs (CI's bench-regression gate)
#   make perfbench      vet and self-test the serving benchmark (nested module)
#
# Service knobs: ADDR, QUEUE, JOB_TIMEOUT, DATA_DIR (non-empty = durable
# jobs with crash recovery); loadgen knobs: CONC, REQS, MIX.

GO          ?= go
SCALE       ?= quick
SEEDS       ?= 16
WORKERS     ?= 0
N           ?= 256
FAMILY      ?= powerlaw
ADDR        ?= 127.0.0.1:8080
QUEUE       ?= 256
JOB_TIMEOUT ?= 60s
DATA_DIR    ?=
CONC        ?= 64
REQS        ?= 500
MIX         ?= degree,tree,connectivity
BASE        ?= main
BENCH_ARGS  := -short -run '^$$' -bench . -benchtime 3x -count 5 . ./internal/wire ./internal/serve
# The merge base may predate internal/wire; benchgate only compares
# benchmarks present on both sides, so the base run probes for the package.
BENCH_ARGS_BASE := -short -run '^$$' -bench . -benchtime 3x -count 5 . $$([ -d internal/wire ] && echo ./internal/wire) ./internal/serve
# The benchmarks whose ns/op the gate holds to 30%: the one definition that
# bench-compare and CI's bench-regression job (through bench-gate) share.
BENCH_GATE  := BenchmarkBatchRealization|BenchmarkBatchRunner|BenchmarkWire|BenchmarkEngineJobs|BenchmarkServeRealizeCached
BENCH_BASE_TXT ?= /tmp/graphrealize-bench-base.txt
BENCH_HEAD_TXT ?= /tmp/graphrealize-bench-head.txt

.PHONY: build test lint ci race bench perfbench sweep tables vet fmt-check serve loadgen loadgen-async bench-compare bench-head bench-base bench-gate clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (internal/lint, cmd/grlint): determinism and
# wire invariants enforced at compile time. Non-empty diagnostics exit 1.
lint:
	$(GO) run ./cmd/grlint ./...

# Every gate a PR must pass that runs in minutes: what the CI test and lint
# jobs check, minus the multi-version matrix and the e2e/bench jobs.
ci: fmt-check vet lint test race perfbench

fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# Pipe consecutive runs into benchstat to compare engine changes:
# BenchmarkEngineJobs is the engine allocation table (allocs/op, msgs and
# allocs/msg for six cold jobs; TestEngineAllocCeilings pins the counts),
# the delivery/barrier benchmarks track the engine loop's own allocs/op,
# the batch benchmark the Runner speedup over a serial loop. -short skips
# the ~40s/iteration n=65536 batch-runner case.
bench:
	$(GO) test -short -run '^$$' -bench . -benchmem ./...

# The serving benchmark is a nested module, outside the root ./...: vet it
# and run its self-tests so an API change that breaks it fails here. Run a
# workload with: bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

sweep:
	$(GO) run ./cmd/degreal -n $(N) -family $(FAMILY) -seeds $(SEEDS) -workers $(WORKERS)

tables:
	$(GO) run ./cmd/benchtab -scale $(SCALE) -workers $(WORKERS)

# The HTTP realization service and its load generator (same commands the CI
# e2e-smoke job runs). Set DATA_DIR to persist async jobs across restarts.
serve:
	$(GO) run ./cmd/grserved -addr $(ADDR) -workers $(WORKERS) -queue $(QUEUE) -job-timeout $(JOB_TIMEOUT) $(if $(DATA_DIR),-data-dir $(DATA_DIR))

loadgen:
	$(GO) run ./cmd/grloadgen -addr http://$(ADDR) -c $(CONC) -requests $(REQS) -mix $(MIX)

# Same traffic, but every other mix cycle goes through the async job API
# (submit/poll/stream/cancel) and reports end-to-end job latency.
loadgen-async:
	$(GO) run ./cmd/grloadgen -addr http://$(ADDR) -c $(CONC) -requests $(REQS) -mix $(MIX) -async

# Bench HEAD against BASE (default: main) and gate: the same three targets
# the CI bench-regression job runs.
bench-compare:
	$(MAKE) --no-print-directory bench-head
	$(MAKE) --no-print-directory bench-base
	$(MAKE) --no-print-directory bench-gate

# The two bench runs bench-gate compares. bench-base checks BASE out into a
# temporary git worktree. Plain redirects (no tee) so a failing bench run
# fails the target under shells without pipefail.
bench-head:
	$(GO) test $(BENCH_ARGS) > $(BENCH_HEAD_TXT)
	cat $(BENCH_HEAD_TXT)

bench-base:
	git worktree add --force /tmp/graphrealize-bench-base $(BASE)
	(cd /tmp/graphrealize-bench-base && $(GO) test $(BENCH_ARGS_BASE)) > $(BENCH_BASE_TXT); \
		status=$$?; git worktree remove --force /tmp/graphrealize-bench-base; \
		exit $$status
	cat $(BENCH_BASE_TXT)

# Fail when any BENCH_GATE benchmark's ns/op in BENCH_HEAD_TXT is more than
# 30% above BENCH_BASE_TXT; writes bench.json. CI's bench-regression job
# runs it on its own head and base outputs.
bench-gate:
	$(GO) run ./cmd/benchgate -base $(BENCH_BASE_TXT) -head $(BENCH_HEAD_TXT) \
		-threshold 30 -match '$(BENCH_GATE)' -json bench.json

clean:
	$(GO) clean ./...
