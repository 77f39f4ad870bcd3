# Development targets. `make check` is the gate every change must pass: it
# includes a gofmt cleanliness check and a race-detector run over the
# packages that share the GEMM worker pool and the inference arena.

GO ?= go

# Per-fuzzer budget for the `fuzz` smoke target.
FUZZTIME ?= 15s

.PHONY: check fmt vet build test race size fuzz chaos bench bench-all bench-infer

check: fmt vet build test race

# Fail on unformatted files so the assembly-adjacent Go stays tidy in CI.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/tensor/... ./internal/engine/... ./internal/core/... ./internal/serve/... ./internal/faultinject/... ./internal/metrics/...

# The two size numbers every change reports: non-test Go LOC of
# internal/engine plus internal/serve, and the percival-serve flag count,
# read from its -h output.
size:
	@echo "engine+serve non-test Go LOC: $$(cat $$(ls internal/engine/*.go internal/serve/*.go | grep -v '_test\.go$$') | wc -l)"
	@echo "percival-serve flags: $$($(GO) run ./cmd/percival-serve -h 2>&1 | grep -c '^  -')"

# Native Go fuzzing smoke pass over the decoders that face untrusted input
# (EasyList rules, HTML, the socket wire framing, the admin control-plane
# request bodies, /classify frame bodies, verdict-cache snapshots, PCVL
# model files). Each
# fuzzer runs for FUZZTIME; crashers are written to the package's
# testdata/fuzz corpus and reproduced by `go test`.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/easylist
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/dom
	$(GO) test -run=NONE -fuzz=FuzzWireMsg -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzAdminRequest -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./cmd/percival-serve
	$(GO) test -run=NONE -fuzz=FuzzRestoreCache -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzLoadModel -fuzztime=$(FUZZTIME) ./internal/nn

# Fault-injection smoke: drives the fleet supervisor (eviction, redial,
# hedging, local fallback) and the daemon's serving edge through flapping /
# blackholed / slow peers, under the race detector. Tests opt in by carrying
# the Chaos name prefix; the faultinject package's own tests ride along.
chaos:
	$(GO) test -race -run Chaos -count=1 -v ./internal/engine/ ./cmd/percival-serve/
	$(GO) test -race -count=1 ./internal/faultinject/

# Headline benchmark snapshot: runs the perf-trajectory benchmarks (FP32 and
# INT8 inference, serve-vs-sync throughput, the shard-count sweep, the
# pinned-lane multi-core row, the two-tier remote-dispatch rotation and the
# fault-injected fleet-health row at concurrency 8, stem GEMMs, resize,
# training epoch) plus the GOMAXPROCS core-count sweep and the INT8
# accuracy-parity comparison, and writes BENCH_9.json.
#
# BENCH_SMOKE=1 instead runs one iteration of every inference/serving
# headline benchmark (both engines, all shard counts, the sync baselines,
# a training epoch) plus the stem GEMM kernels, a GOMAXPROCS=4 run of the
# pinned-lane multi-core row, and compiles the snapshot tool — the CI gate
# that catches harness breakage without paying for a full trajectory run.
# ServeOverload8x2 rides in the BenchmarkServe match and is itself a gate:
# it fails the run unless the brownout ladder engages, releases, and holds
# goodput under 2x offered load. ServeReroute8x2 rides the same match and
# gates the control plane: weighted routing must beat the static baseline
# with live membership churn and an agreement-driven canary mid-run. Not
# covered at runtime: the eval parity experiment (compile-only via the
# tool build).
bench:
ifdef BENCH_SMOKE
	$(GO) test -run=NONE -bench='BenchmarkInfer|BenchmarkServe|BenchmarkSync|BenchmarkTrainingEpoch' -benchtime=1x .
	GOMAXPROCS=4 $(GO) test -run=NONE -bench='BenchmarkServeRotationPinned' -benchtime=1x .
	$(GO) test -run=NONE -bench='BenchmarkGemm|BenchmarkQGemm' -benchtime=1x ./internal/tensor/
	$(GO) build -o /dev/null ./cmd/percival-bench
else
	$(GO) run ./cmd/percival-bench -out BENCH_9.json
endif

# Full benchmark sweep (slow: regenerates every paper figure).
bench-all:
	$(GO) test -run=NONE -bench=. -benchmem .

# Just the inference-latency trajectory (see PERFORMANCE.md).
bench-infer:
	$(GO) test -run=NONE -bench='BenchmarkInferSingle|BenchmarkInferBatch' -benchmem .
	$(GO) test -run=NONE -bench='BenchmarkGemm|BenchmarkQGemm' -benchtime=1s ./internal/tensor/
