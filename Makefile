# Tier-1 verification and developer shortcuts. `make verify` is the
# gate every PR must keep green: build, vet (also for arm64),
# formatting, full test suite, the race detector (short mode) over the
# parallel compute paths and the int8 accuracy gate. Performance is
# measured by the repository benchmark under perfbench/
# (perfbench/run.sh), not by make targets.

GO ?= go

.PHONY: build vet cross-vet fmt-check test race race-full verify perfbench-build serve-smoke obs-smoke cache-smoke trace-smoke kernel-matrix quant-gate bench bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Type-checks and vets the tree for arm64, so the files built only off
# amd64 (the portable stubs beside each assembly kernel) compile too;
# nothing else in verify builds them.
cross-vet:
	GOARCH=arm64 $(GO) vet ./...

# Fails when gofmt would rewrite any Go file in the tree.
fmt-check:
	@out="$$(gofmt -l cmd internal examples perfbench *.go)"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass in short mode: the parity suites in
# internal/parallel, internal/tensor, internal/hsd and internal/serve
# drive every parallelised kernel and the serving pool under -race;
# -short keeps the training-heavy packages fast.
race:
	$(GO) test -race -short ./...

# Full race pass including long training tests; slow, run before releases.
race-full:
	$(GO) test -race ./...

# End-to-end daemon check: rhsd-serve starts on a loopback port, scans a
# generated layout through its own HTTP API, verifies the error boundary
# on a malformed request, and drains cleanly.
serve-smoke:
	$(GO) run ./cmd/rhsd-serve -selftest -init-random

# Observability smoke: the same selftest with pprof mounted, which also
# asserts the Prometheus exposition on /metrics (request counters,
# per-stage histograms, pool gauges) against known request counts.
obs-smoke:
	$(GO) run ./cmd/rhsd-serve -selftest -init-random -pprof

# Result-cache smoke: the content-addressed cache unit suite, the layout
# diff edge cases, the differential cached/incremental/cold scan harness
# (short mode), the cancelled-scan test (cache state after a stop at each
# megatile boundary), and a brief run of the cache-key fuzzer's corpus.
cache-smoke:
	$(GO) test -short -count=1 ./internal/scancache
	$(GO) test -short -count=1 -run 'Diff|Dirty' ./internal/layout
	$(GO) test -short -count=1 -run 'Cache|Rescan|Diff|Dirty|Adversarial|WeightChange|Cancel' ./internal/hsd
	$(GO) test -run='^$$' -fuzz=FuzzCacheKey -fuzztime=30x ./internal/hsd

# Flight-recorder smoke: the span-tree unit suite (ring semantics,
# snapshot isolation, bounded drops, traceparent), the traced-scan shape and
# per-span profile-parity tests, the concurrent hammer under -race, and
# the serve selftest — which asserts end to end that a /detect request
# produces a retrievable trace with queue-wait, scan, megatile and
# correctly nested stage spans, joined to /statusz scan history.
trace-smoke:
	$(GO) test -count=1 ./internal/telemetry
	$(GO) test -count=1 -run 'TestScanTraceTree|TestProfileScopeParity' ./internal/hsd
	$(GO) test -race -count=1 -run 'TestTraceHammer' ./internal/telemetry
	$(GO) run ./cmd/rhsd-serve -selftest -init-random -slow-scan 1ns

# GEMM kernel matrix: re-run the numeric parity suites with each
# registered micro-kernel forced via RHSD_GEMM_KERNEL — tensor and nn,
# plus the detector's inference-equals-training test in hsd, so the
# model-level Infer ≡ Forward pin holds in both rounding families — then
# the int8 parity suites with each quantized kernel forced via
# RHSD_QGEMM_KERNEL.
# A kernel the host cannot run is skipped inside the tests with a logged
# reason (the TestForcedKernelActive gates record that the request was
# not honored), so the matrix stays green on narrower machines while
# documenting what was not exercised. The final -race run hammers the
# atomic kernel dispatch while Gemm calls are in flight.
kernel-matrix:
	for k in go go-fma sse avx2 avx512; do \
		echo "== RHSD_GEMM_KERNEL=$$k =="; \
		RHSD_GEMM_KERNEL=$$k $(GO) test -count=1 \
			-run 'Gemm|Conv|Infer|Kernel|Quantize' ./internal/tensor ./internal/nn || exit 1; \
		RHSD_GEMM_KERNEL=$$k $(GO) test -count=1 \
			-run 'TestInferMatchesTrainingPath' ./internal/hsd || exit 1; \
	done
	for q in qgo qvnni; do \
		echo "== RHSD_QGEMM_KERNEL=$$q =="; \
		RHSD_QGEMM_KERNEL=$$q $(GO) test -count=1 \
			-run 'QGemm|Quant|QConv' ./internal/tensor ./internal/nn || exit 1; \
	done
	$(GO) test -race -count=1 -run 'TestGemmKernelDispatchRace' ./internal/tensor

# The benchmark under perfbench/ is its own Go module, so the root
# build and vet never compile it: this keeps an internal API change it
# depends on (tensor.ProfileSnapshot, the hsd entry points) from breaking
# the benchmark while the rest of verify stays green.
perfbench-build:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench build -o /dev/null .

verify: build vet cross-vet fmt-check perfbench-build test race serve-smoke obs-smoke cache-smoke trace-smoke kernel-matrix quant-gate

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark, to catch bit-rot in bench code
# without paying full measurement time. The root package only runs the
# Micro benchmarks: the Table1/Figure10 ones train models in their setup
# and would dominate the smoke run.
bench-smoke:
	$(GO) test -run='^$$' -bench=Micro -benchtime=1x .
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/...

# Int8 accuracy-delta gate on a FastProfile model (about 75 s on a
# 2-CPU host):
# trains once, runs the Table-1 protocol in fp32 and int8, prints the
# verdict line and fails unless it is PASS. FAIL means int8 drifted past
# the budget; INCONCLUSIVE means fp32 recall was under 50% or there were
# fewer than 100 hotspots. Runs on every host, under whichever int8
# kernel is active (RHSD_QGEMM_KERNEL forces one).
quant-gate:
	$(GO) run ./cmd/rhsd-bench -exp quant
