# Tier-1 verification and developer shortcuts. `make verify` is the
# gate every PR must keep green: build, vet, full test suite, and the
# race detector (short mode) over the parallel compute paths.

GO ?= go

.PHONY: build vet test race race-full verify perfbench-build serve-smoke obs-smoke cache-smoke trace-smoke kernel-matrix bench bench-smoke bench-parallel bench-alloc bench-scan bench-obs bench-serve bench-simd bench-quant

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# (short mode), and a brief run of the cache-key fuzzer's corpus.
cache-smoke:
	$(GO) test -short -count=1 ./internal/scancache
	$(GO) test -short -count=1 -run 'Diff|Dirty' ./internal/layout
	$(GO) test -short -count=1 -run 'Cache|Rescan|Diff|Dirty|Adversarial|WeightChange' ./internal/hsd
	$(GO) test -run='^$$' -fuzz=FuzzCacheKey -fuzztime=30x ./internal/hsd

# Flight-recorder smoke: the span-tree unit suite (ring semantics, span
# pooling, bounded drops, traceparent), the traced-scan shape and
# per-span profile-parity tests, the concurrent hammer under -race, and
# the serve selftest — which asserts end to end that a /detect request
# produces a retrievable trace with queue-wait, scan, megatile and
# correctly nested stage spans, joined to /statusz scan history.
trace-smoke:
	$(GO) test -count=1 ./internal/telemetry
	$(GO) test -count=1 -run 'TestScanTraceTree|TestPerTileScanTrace|TestProfileScopeParity' ./internal/hsd
	$(GO) test -race -count=1 -run 'TestTraceHammer' ./internal/telemetry
	$(GO) run ./cmd/rhsd-serve -selftest -init-random -slow-scan 1ns

# GEMM kernel matrix: re-run the numeric parity suites with each
# registered micro-kernel forced via RHSD_GEMM_KERNEL, then the int8
# parity suites with each quantized kernel forced via RHSD_QGEMM_KERNEL.
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
	done
	for q in qgo qavx2 qvnni; do \
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

verify: build vet perfbench-build test race serve-smoke obs-smoke cache-smoke trace-smoke kernel-matrix bench-quant

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark, to catch bit-rot in bench code
# without paying full measurement time. The root package only runs the
# Micro benchmarks: the Table1/Figure10 ones train models in their setup
# and would dominate the smoke run.
bench-smoke:
	$(GO) test -run='^$$' -bench=Micro -benchtime=1x .
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/...

# Serial-vs-parallel wall-clock comparison; writes BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/rhsd-bench -exp parallel

# Heap-path vs zero-allocation inference comparison; writes BENCH_alloc.json.
bench-alloc:
	$(GO) run ./cmd/rhsd-bench -exp alloc

# Per-tile vs megatile full-chip scan comparison; writes BENCH_scan.json.
bench-scan:
	$(GO) run ./cmd/rhsd-bench -exp scan

# Telemetry-on vs telemetry-off overhead guard (<1%); writes BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/rhsd-bench -exp obs

# Cached serving daemon under a 90%-repeat load; writes BENCH_serve.json.
# On a host with fewer than two CPUs this records {"status": "skipped"}.
bench-serve:
	$(GO) run ./cmd/rhsd-bench -exp serve

# Per-GEMM-kernel throughput, end-to-end detect delta and fused-im2col
# comparison; writes BENCH_simd.json. On a host without AVX2+FMA this
# records {"status": "skipped"} naming the missing feature.
bench-simd:
	$(GO) run ./cmd/rhsd-bench -exp simd

# Int8 vs fp32 kernel throughput (min-of-3), end-to-end detection under a
# calibrated int8 trunk, steady-state allocations and the fp32-vs-int8
# accuracy-delta gate at smoke scale; writes BENCH_quant.json. On a host
# without AVX-512-VNNI (or AVX2) this records {"status": "skipped"}
# naming the missing feature.
bench-quant:
	$(GO) run ./cmd/rhsd-bench -exp quant
