# Developer/CI entry points. `make check` is the full gate, in order:
# gofmt (any file gofmt would rewrite fails), go vet, brightlint (the
# domain-aware analyzers in internal/lint: SI-unit literals, *Context
# propagation on serving paths, obs registration placement, discarded
# errors, goroutine lifecycle, lock hygiene, HTTP response lifecycle),
# the build, a vet of the separate e2ebench module (`bench-build`: it
# imports bright/internal/..., which the root build cannot see break),
# the serving tier under the race detector with the
# leakcheck goroutine-neutrality harness active (`race-all` — the sim
# engine, streaming sessions and cluster coordinator are heavily
# concurrent; races and leaked goroutines there are correctness bugs,
# not style), and the kernel escape guard. `make race` remains the
# full-tree race pass and `make fuzz` the fuzz smoke, both outside the
# default gate for time.

GO ?= go

.PHONY: check fmt-check build bench-build vet lint lint-fix-list test race race-all test-short test-loaded fuzz bench bench-serving bench-compare escape-check

check: fmt-check vet lint build bench-build race-all escape-check

# Formatting gate: any file gofmt would rewrite fails the build.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@echo fmt-check ok

build:
	$(GO) build ./...

# The end-to-end benchmark is its own module (`replace bright => ../`),
# so `go build ./...` at the root skips it; vetting it from inside
# catches an internal API change that breaks the benchmark's build.
bench-build:
	$(GO) -C e2ebench vet ./...

vet:
	$(GO) vet ./...

# Domain-aware static analysis (cmd/brightlint): exits nonzero on any
# finding. Deliberate cases are annotated in source with
# `//lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/brightlint ./...

# Convenience view of the same findings grouped by analyzer with
# counts, for working through a backlog; never fails the build.
lint-fix-list:
	@$(GO) run ./cmd/brightlint -group ./... || true

test:
	$(GO) test ./...

# Race-detected run of everything; use `make race PKG=./internal/sim/...`
# to scope it to the concurrent paths. Race instrumentation is a
# 10-20x slowdown on small containers (the experiments package alone
# can exceed go test's default 10m budget on one core), so the gate
# raises the per-package timeout rather than skipping the heavy suites.
PKG ?= ./...
RACE_TIMEOUT ?= 30m
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) $(PKG)

# Race pass over the whole concurrent serving tier in one invocation
# (it replaced the old race-serving/race-stream/race-cluster trio): the
# metrics registry, the sim engine's workers and flight groups, the
# streaming session run loops and frame ring, the cluster coordinator's
# hedged requests and health/snapshot loops, and the brightd
# integration tests at the repo root. internal/sim, internal/stream and
# internal/cluster run under the leakcheck TestMain harness
# (internal/testutil/leakcheck), so this target also proves every
# goroutine those packages start dies with its owner — the runtime twin
# of the goroutinelife analyzer.
race-all:
	$(GO) test -race -timeout $(RACE_TIMEOUT) . ./internal/obs/... ./internal/sim/... ./internal/stream/... ./internal/cluster/... ./internal/testutil/...

test-short:
	$(GO) test -short ./...

# Tier-1 under CPU load: the cluster and sim suites at -cpu 1,2 next to
# one busy-loop hog per core, so a deadline that only holds on an idle
# machine fails here instead of intermittently in `make test`. The trap
# kills the hogs however the run ends, keeping go test's exit status.
test-loaded:
	@hogs=""; trap 'kill $$hogs 2>/dev/null' EXIT; \
	for i in $$(seq $$(nproc)); do (while :; do :; done) & hogs="$$hogs $$!"; done; \
	echo "test-loaded: $$(nproc) CPU hog(s):$$hogs"; \
	$(GO) test -count=1 -cpu 1,2 ./internal/cluster/... ./internal/sim/...

# Fuzz smoke: a short bounded run of each fuzz target (Go's fuzzer
# accepts one -fuzz per invocation). FuzzCanonicalKey/FuzzChainKey pin
# the cache-key quantization contract; FuzzCacheSnapshotRestore throws
# arbitrary JSON at the snapshot-restore path brightd exposes over PUT
# /v1/cache/snapshot. Longer runs: bump FUZZTIME.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzChainKey -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzCacheSnapshotRestore -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run xxx -fuzz FuzzSELLRoundTrip -fuzztime $(FUZZTIME) ./internal/num

# Full benchmark sweep over the numeric kernels, the thermal solver,
# the serving engine and the streaming-session stepper, folded into a
# machine-readable report ($(BENCH_OUT)): per-benchmark ns/op, B/op,
# allocs/op, the paired speedup rows (Jacobi vs multigrid
# preconditioning, sequential vs block multi-RHS CG, CSR vs SELL-C-σ
# SpMV) and the streaming frames/s rows, stamped with the Go version
# and core count of the generating machine. The kernels are serial, so
# the num suite has no thread-count pairs (BENCH_PR10.json holds the
# last /serial vs /parallel rows). The num suite runs -count 3 so the
# committed speedup rows are medians (see cmd/benchjson), not single
# samples of a drifting box. BENCH_PR2.json (pre-multigrid),
# BENCH_PR5.json (pre-streaming), BENCH_PR6.json (pre-mixed-precision)
# and BENCH_PR7.json (pre-SELL) are frozen baselines; do not overwrite
# them.
BENCH_OUT ?= BENCH_PR10.json
bench:
	$(GO) test -run xxx -bench . -count 3 -benchmem ./internal/num > /tmp/bench_num.txt
	$(GO) test -run xxx -bench . -benchmem ./internal/thermal > /tmp/bench_thermal.txt
	$(GO) test -run xxx -bench BenchmarkEngineThroughput -benchmem . > /tmp/bench_engine.txt
	$(GO) test -run xxx -bench BenchmarkTransientStepping -benchmem ./internal/stream > /tmp/bench_stream.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) /tmp/bench_num.txt /tmp/bench_thermal.txt /tmp/bench_engine.txt /tmp/bench_stream.txt
	@echo wrote $(BENCH_OUT)

# Serving-layer throughput baseline only (see BenchmarkEngineThroughput).
bench-serving:
	$(GO) test -run xxx -bench BenchmarkEngineThroughput -benchmem .

# Solver regression gate: runs the paired preconditioner benchmarks
# (BenchmarkCGPoisson64x64, BenchmarkCGPoisson128x128, BenchmarkCGStack3D
# — each a /jacobi vs /mg couple) plus the block multi-RHS couple
# (BenchmarkBlockCG128x128: /seq vs /block, gated on the deterministic
# rows/op metric) and the SELL-C-σ layout couples (BenchmarkSpMV*:
# /csr vs /sell on the 256²/512²/stacked-die operators), and fails if
# any optimized path drops below 1.0x its baseline, or if any pair goes
# missing. -count 3 lets benchjson gate on per-benchmark medians, so a
# CPU-frequency dip on a shared box cannot flake a timing ratio.
bench-compare:
	$(GO) test -run xxx -bench 'BenchmarkCGPoisson|BenchmarkCGStack3D|BenchmarkBlockCG|BenchmarkSpMV' -count 3 -benchmem ./internal/num > /tmp/bench_mg.txt
	$(GO) run ./cmd/benchjson -min-mg-speedup 1.0 -min-speedup 1.0 -o /dev/null /tmp/bench_mg.txt

# Static allocation guard for the kernel hot paths. The serial range
# kernels in internal/num/kernels.go may not allocate at all; in
# internal/num/sellcs.go only the SELL-C-σ constructor (NewSELLCS, run
# once at solver setup) may allocate — the sliced kernel's accumulators
# must stay on the stack. Anything else — a closure capturing operands,
# a buffer escaping per call — would put an allocation on every kernel
# op and break the zero-allocs/op solve loop, so it fails the gate. The
# dynamic twin of this guard is TestKrylovWorkspaceZeroAlloc.
escape-check:
	@out=$$($(GO) build -gcflags=-m ./internal/num 2>&1 \
		| grep -E 'kernels\.go|sellcs\.go' \
		| grep -E 'escapes to heap|moved to heap' \
		| grep -vE 'make\(\[\]int32, rows\)|make\(\[\]int, nSlices \+ 1\)|make\(\[\]int32, padded\)|make\(\[\]float64, padded\)|&SELLCS\{\.\.\.\}'); \
	if [ -n "$$out" ]; then \
		echo "escape-check: unexpected heap escapes in the kernel hot path:"; \
		echo "$$out"; exit 1; \
	fi
	@echo escape-check ok
