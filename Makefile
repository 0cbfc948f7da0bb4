# The DESIGN §9 quality gate, runnable as one target. `make check` is
# what CI (and pre-commit) should run.

GO ?= go

.PHONY: check fmt vet lint build test race race-all bench bench-json bench-pairs dash-smoke

# The packages with real concurrency: the comparator worker pool (which
# now also runs the consistency lint and the n-way cross-check), the
# absint verifier worker pool (which sweeps the tnum and stride transfer
# suites), the engine's cross-goroutine cancellation, the bit-sliced
# evaluator both pools share, the campaign
# loop, the metrics instruments, the sharded cache, the fact service
# (admission and solve slots), and the n-way/reducer packages the worker
# pool calls into. The full suite under the race detector is the race-all
# target; it takes many minutes.
RACE_PKGS = ./internal/compare ./internal/solver ./internal/sat \
            ./internal/campaign ./internal/metrics ./internal/rescache \
            ./internal/trace ./internal/absint ./internal/eval \
            ./internal/nway ./internal/reduce ./internal/factsvc \
            ./internal/ops ./internal/tnum ./internal/stride

check: fmt lint build race

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint = vet + staticcheck. staticcheck is an external tool; when it is
# not on PATH (e.g. a hermetic build container) the step degrades to vet
# with a notice rather than failing — CI installs it and gets the full
# check.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# Record the root-package benchmarks (Table 1 timings, solver counters,
# ablations, fact-service core) as a JSON artifact. EXPERIMENTS.md
# explains how to compare a "current" section against the committed
# pre-optimization "baseline".
BENCH_OUT ?= BENCH_3.json
BENCH_AS  ?= current
bench-json:
	$(GO) test -run NONE -bench 'BenchmarkTable1|BenchmarkAblation|BenchmarkRescache|BenchmarkFactService' -benchmem . \
		| $(GO) run ./cmd/bench-json -out $(BENCH_OUT) -as $(BENCH_AS)

# Compare the working tree with revision BASE on the end-to-end
# benchmark by the paired procedure in bench/README.md:
#
#   make bench-pairs BASE=<rev> [PAIRS=10] [WORKLOAD=all]
#
# BASE is checked out as a detached worktree under .bench_build/base.
# Pair i runs both sides once with seed i, the base first in odd pairs
# and the working tree first in even ones, into .bench_build/base.json
# and .bench_build/change.json (both started afresh); -compare then
# gives the verdicts and fails on a regression. Both sides must run the
# same benchmark, so the target refuses to start when bench/ or
# BENCHMARK.json differ from BASE. A pair of 45 s runs of both
# workloads takes about three minutes.
PAIRS    ?= 10
WORKLOAD ?= all
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [PAIRS=10] [WORKLOAD=all]"; exit 2; }
	@git diff --quiet $(BASE) -- bench BENCHMARK.json || { \
		echo "bench/ or BENCHMARK.json differ from $(BASE): the two sides would run different benchmarks"; exit 1; }
	@out=$$PWD/.bench_build; base=$$out/base; \
	git worktree remove --force $$base 2>/dev/null; \
	git worktree add --detach $$base $(BASE) || exit 1; \
	trap "git worktree remove --force $$base" EXIT; \
	rm -f $$out/base.json $$out/change.json; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi; \
		for side in $$order; do \
			dir=$$PWD; [ $$side = base ] && dir=$$base; \
			echo "pair $$i/$(PAIRS): $$side"; \
			(cd $$dir && bash bench/run.sh -workload $(WORKLOAD) -runs 1 -seed $$i -out $$out/$$side.json); \
		done; \
	done; \
	bash bench/run.sh -compare $$out/base.json $$out/change.json

# Build serve mode, hit every ops endpoint, and check the readiness flip
# during the SIGINT drain window — the same sequence CI runs.
DASH_PORT ?= 18129
dash-smoke:
	$(GO) build -o /tmp/dfcheck-fuzz-smoke ./cmd/dfcheck-fuzz
	@/tmp/dfcheck-fuzz-smoke -serve -http 127.0.0.1:$(DASH_PORT) -drain 2s & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:$(DASH_PORT)/readyz >/dev/null && break; sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:$(DASH_PORT)/healthz >/dev/null || { echo "healthz FAILED"; exit 1; }; \
	curl -sf http://127.0.0.1:$(DASH_PORT)/metricsz | grep -q '^# TYPE ' || { echo "metricsz FAILED"; exit 1; }; \
	curl -sf http://127.0.0.1:$(DASH_PORT)/dashboardz | grep -q '<!doctype html>' || { echo "dashboardz FAILED"; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:$(DASH_PORT)/v1/facts \
		-d '{"exprs":["%x:i8 = var\n%0:i8 = add 1:i8, %x\ninfer %0"]}' | grep -q '"facts"' || { echo "facts FAILED"; exit 1; }; \
	kill -INT $$pid; sleep 0.5; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:$(DASH_PORT)/readyz); \
	[ "$$code" = 503 ] || { echo "readyz during drain = $$code, want 503"; exit 1; }; \
	wait $$pid; \
	echo "dash-smoke PASSED"
