GO ?= go

.PHONY: all build test race vet fmt lint speclint synth fuzz smoke-faults smoke-cluster smoke-overload smoke-replay ci bench bench-check bench-trace

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the Go static analyzers: go vet always, staticcheck when it is on
# PATH (CI installs the pinned version; locally the step is skipped with a
# note rather than failing on a missing tool).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs the pinned version)"; \
	fi

# speclint runs the shadow-text verifier over every benchmark app's
# transformed binary; a nonzero exit means a transform invariant does not hold.
speclint:
	$(GO) run ./cmd/spechint -app all -lint
	$(GO) run ./cmd/spechint -app all -lint -no-stack-opt

# synth synthesizes static hints for every benchmark app and audits them
# against a dynamic static-mode run; an unconsumed hint is a nonzero exit.
synth:
	$(GO) run ./cmd/spechint -app all -synthesize

# fuzz runs the native fault-containment fuzz target and the fuzz targets of
# the two user-input parsers (fault specs, assembly) for a short budget each.
fuzz:
	$(GO) test -fuzz=FuzzRun -fuzztime=10s -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzFaultParse -fuzztime=10s -run '^$$' ./internal/fault
	$(GO) test -fuzz=FuzzAssemble -fuzztime=10s -run '^$$' ./internal/asm

# smoke runs the fault-injection degradation sweep at test scale.
smoke-faults:
	$(GO) run ./cmd/tipbench -exp faults -scale test -json BENCH_faults_test.json

# smoke-cluster runs the sharded-service sweep at test scale.
smoke-cluster:
	$(GO) run ./cmd/tipbench -exp cluster -scale test -json BENCH_cluster_test.json

# smoke-overload runs the admission-control/failover sweep at test scale.
smoke-overload:
	$(GO) run ./cmd/tipbench -exp overload -scale test -json BENCH_overload_test.json

# smoke-replay runs the trace-replay grid (modern apps in all modes plus the
# capture→replay round trip) at test scale; the run itself fails on a
# non-exact round trip.
smoke-replay:
	$(GO) run ./cmd/tipbench -exp replay -scale test -json BENCH_replay_test.json

ci: lint fmt build race speclint synth smoke-faults smoke-cluster smoke-overload smoke-replay fuzz

# bench regenerates the canonical full-scale multiprogramming sweep into the
# committed baseline under bench/results/ (expect minutes; the sweep runs
# once, and its text table and the JSON come from that one run). Scratch runs that
# should stay out of git can still write BENCH_*.json anywhere else — the
# ignore rules swallow those but keep bench/results/ tracked.
bench:
	@mkdir -p bench/results
	$(GO) run ./cmd/tipbench -exp multi -json bench/results/BENCH_multi.json

# bench-check reruns the full-scale multi sweep and fails if it drifted more
# than 10% from the committed baseline or flipped a who-wins ordering
# (Figure 3 shape). Run it after simulator changes; if the drift is
# intentional, regenerate the baseline with make bench and commit the diff.
bench-check:
	$(GO) run ./cmd/tipbench -check bench/results/BENCH_multi.json

# bench-trace records a full cross-layer Chrome trace of a speculating group
# next to the baseline; open it in chrome://tracing or ui.perfetto.dev.
bench-trace:
	@mkdir -p bench/results
	$(GO) run ./cmd/tipbench -exp multi -scale test -multimax 3 \
		-trace-json bench/results/TRACE_multi.json
