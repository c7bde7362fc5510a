# edgebench-go — stdlib-only Go reproduction of the IISWC'19 edgeBench study.

GO ?= go

.PHONY: all build fmt vet test lint analyze race check cover bench-test fuzz layers opt-equiv reproduce sweep examples serve-smoke pipe-smoke loc loc-check cross clean

all: build vet test

build:
	$(GO) build ./...

# Fails, listing the files, when anything is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# The paper's boards are arm64: every package must build and vet there,
# so a kernel written for one architecture keeps a portable fallback. And
# the fallbacks must keep the vector bodies' bits: in an arm64 build of
# the tensor tests, each FP32 kernel with an AVX2 body (pointwiseQuads,
# the depthwise row with its edge and pixel loops, the epilogue), the
# unfused BatchNorm that must match the epilogue's affine, the int8
# requantize and the FMUL probe must multiply apart (FMULS), and no
# instruction from their files, the int8 quantizer's or the other FP32
# kernels' (dense, 3-D conv, LSTM, batch-norm folding), inlined copies
# included, may fuse a multiply into an add.
cross:
	GOARCH=arm64 $(GO) vet ./...
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	GOARCH=arm64 $(GO) test -c -o "$$dir/tensor.test" ./internal/tensor && \
	$(GO) tool objdump "$$dir/tensor.test" > "$$dir/dis" && \
	for f in pointwiseQuads depthwiseRow depthwiseEdge depthwisePixel applyEpilogueSpan BatchNormInto requantizeRow FMULChains; do \
		awk -v f="edgebench/internal/tensor.$$f(SB)" '/^TEXT /{on = $$2 == f} on' "$$dir/dis" | grep -q FMULS || \
			{ echo "make cross: no FMULS in an arm64 $$f"; exit 1; }; \
	done; \
	! grep -E '^ +(conv|fused|gemm|probe|into|qgemm|quant|matmul|conv3d|lstm|ops)\.go:.*FN?M(ADD|SUB)' "$$dir/dis" || \
		{ echo "make cross: an arm64 kernel fuses a multiply-add"; exit 1; }

test:
	$(GO) test ./...

# Repo-specific static analysis (cmd/edgelint): the registered analyzer
# suite — float equality, Graph.Nodes mutation, panic in error-returning
# functions, missing doc comments, exported engine code only tests
# reach (unused-export), plus the concurrency family (atomic-mixed,
# mutex-infer, go-lifetime, wg-add, unchecked-error, into-alias).
# `go run ./cmd/edgelint -rules` lists everything.
lint:
	$(GO) run ./cmd/edgelint ./...

# The full static-analysis gate: go vet, every edgelint rule, and the
# graph-IR dataflow verifiers over the whole model zoo (buffer-plan
# aliasing proof + quant-domain discipline). Nonzero on any finding.
analyze: vet lint
	$(GO) run ./cmd/modelzoo -analyze

# Graph-compiler gate: the O2 pass pipeline (constant folding, identity
# elimination, pattern fusion, dead-node removal) must survive every
# verify gate on all zoo models, and the O2 graphs must be bitwise
# equivalent to O0 on the materialized models under the compute budget.
opt-equiv:
	$(GO) run ./cmd/modelzoo -opt O2
	$(GO) test -count=1 -run 'TestZooOpt|TestOptimize' ./internal/model/ ./internal/opt/

# Full test suite under the race detector. This is the concurrency
# correctness gate: the engine-equivalence tests (internal/graph,
# internal/model, internal/serving, internal/core) run the pooled
# executor, the sharded kernels and the replica fan-out against
# reference outputs with -race on.
race:
	$(GO) test -race ./...

# Live-serving smoke: boots the real HTTP inference server on a free
# port, auto-picks an attack rate well inside both the live and the
# simulated envelope, fires a burst load through the built-in generator,
# scrapes /metrics, and exits nonzero unless the run was clean (zero
# errors, zero shed, both replicas demonstrably inside the engine at
# once: edgeserve_engine_inflight_max = min(replicas, burst)). Runs twice:
# the FP32 path under the O2 graph compiler (live pattern-fused serving)
# and the real-int8 path (-quantize int8), which must also prove int8
# kernel dispatches in /metrics.
serve-smoke:
	$(GO) run ./cmd/edgeserve -model CifarNet -framework TFLite -device EdgeTPU \
		-listen 127.0.0.1:0 -replicas 2 -attack auto,2s,4 -smoke -opt O2
	$(GO) run ./cmd/edgeserve -model CifarNet -framework TFLite -device EdgeTPU \
		-listen 127.0.0.1:0 -replicas 2 -attack auto,2s,4 -smoke -quantize int8

# Distributed pipelined-serving smoke: partitions CifarNet into three
# pipeline stages (the paper's RPi3 / Nano / TX2 testbed under the
# ethernet link model), spawns three local stage-worker processes,
# verifies the distributed pipeline is bit-identical to the
# single-process executor, then fires a burst load through the front
# server and asserts a clean run on a healthy pipeline whose heaviest
# stage had two frames inside its engine at once (each stage runs a
# compute loop per core: edgepipe_stage_inflight_max >= 2 there); the
# throughput beside one serving replica's is printed, not gated (three
# stages and a dispatcher need more cores than CI has to overlap).
pipe-smoke:
	$(GO) run ./cmd/edgepipe run -model CifarNet -framework TFLite \
		-devices RPi3,JetsonNano,JetsonTX2 -link ethernet \
		-check 4 -attack auto,2s,4 -smoke

# The repository benchmark's own tests (bench/ is a separate module, so
# `go test ./...` does not reach it): unit tests, a smoke run of every
# workload, and TestRealModels — the real MobileNet-v2 / SqueezeNet-int8
# graphs, one bit-verified op each, exact dispatch counts — which is
# what stands guard over the kernels the stream workloads measure. Then
# one iteration of each hot-shape kernel micro-benchmark in
# internal/tensor, so one that stops compiling or starts panicking fails
# the gate. Conv2DQPrepacked is the int8 convolution (on its codes in
# place; the name is kept so its history stays comparable) at SqueezeNet's
# hot shapes, and QGEMM512 a 1x1 int8 conv of 512 channels to 512 on a
# 512-pixel plane. The pattern's ForkJoin also selects BenchmarkForkJoinGap, the
# kernel pool's hand-off between two calls; IMULPeak and FMULPeak are the
# probes QGEMM512's and GEMMFP32Blocked512's rates are read against on
# their Go paths, and QMACVectorPeak and FMULVectorPeak the eight-lane
# ones where the int8 and FP32 kernels run on AVX2;
# DenseFP32 is the FP32 dense layer at CifarNet's fc3 and MobileNet-v2's
# classifier shapes.
# Last, one weighted exchange Export + Import of CifarNet and
# MobileNet-v2: what a pipeline stage's configure pays.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .
	$(GO) test ./internal/tensor -run '^$$' -bench 'PointwiseConv|Conv2DKxK|Conv2DQPrepacked|MaxPool3x3s2|QuantizeDynamic|QGEMM512|IMULPeak|QMACVectorPeak|FMULPeak|FMULVectorPeak|GEMMFP32Blocked512|Depthwise3x3|ForkJoin|ClampReLU6|DenseFP32' -benchtime 1x
	$(GO) test ./internal/exchange -run '^$$' -bench ExportImport -benchtime 1x

# The per-layer table: the benchmark's three models (MobileNet-v2 O2
# FP32, SqueezeNet O2 int8, CifarNet O2 FP32) timed step by step through
# the executor's step observer, 30 observed forwards each at GOMAXPROCS 1
# and 2, against FMUL / IMUL chain, eight-lane FMUL / VPMADDWD chain and
# streaming-copy rooflines probed in the same process. Fails, writing nothing, when a model's step p50s do
# not sum to within 10% of its forward p50. About ten seconds on a 2-vCPU
# host.
layers:
	$(GO) run ./cmd/modelzoo -layers BENCH_layers.json

# The int8 microkernel's vector body against its Go loop
# (FuzzQPointwiseQuads), then the max-pool row's (FuzzMaxPoolRow), the
# 3x3 depthwise kernel's (FuzzDepthwiseRow) and the activation
# quantizer's (FuzzQuantizeRow): `go test` runs their seed corpora; this
# runs each fuzzer for ten seconds on two workers, about 45 s of wall
# time with the build on a 2-vCPU host.
fuzz:
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzQPointwiseQuads -fuzztime 10s -parallel 2
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzMaxPoolRow -fuzztime 10s -parallel 2
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzDepthwiseRow -fuzztime 10s -parallel 2
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzQuantizeRow -fuzztime 10s -parallel 2

# The CI gate: everything that must be clean before a merge.
check: build fmt loc-check cross analyze opt-equiv race bench-test fuzz serve-smoke pipe-smoke

cover:
	$(GO) test -cover ./...

# Non-test lines in the two engine packages, their assembly included:
# the number ROADMAP aim 2 and CHANGES.md quote.
loc:
	@ls internal/graph/*.go internal/tensor/*.go internal/tensor/*.s | grep -v _test | xargs cat | wc -l

# The engine packages grow on purpose or not at all: a change that takes
# `make loc` past the ceiling raises the ceiling in the same commit and
# says why in CHANGES.md (ROADMAP aim 2).
LOC_CEILING = 6633

loc-check:
	@n=$$($(MAKE) -s loc); test "$$n" -le $(LOC_CEILING) || \
		{ echo "make loc: $$n lines, ceiling $(LOC_CEILING) (raise it in the Makefile, with the reason in CHANGES.md)"; exit 1; }

# Regenerate every paper table/figure plus the extensions.
reproduce:
	$(GO) run ./cmd/edgebench -all

# Full-factorial characterization CSV (the open-source-harness artifact).
sweep:
	$(GO) run ./cmd/edgesweep -extensions -o sweep.csv

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dronepatrol
	$(GO) run ./examples/smartcamera
	$(GO) run ./examples/fleetplanner
	$(GO) run ./examples/trainlab

# The paper-vs-model calibration audit.
audit:
	$(GO) run ./cmd/calibrate

clean:
	rm -f sweep.csv test_output.txt bench_output.txt
