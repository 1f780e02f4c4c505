GO ?= go

.PHONY: verify build vet staticcheck test race fuzz chaos fabric-chaos obs-smoke load-check load-bench load-live bench bench-kernels bench-kernels-check bench-comm serve-bench bench-stream bench-stream-check

## verify: the tier-1 gate — build, vet (+staticcheck when installed), full
## tests, race-test the concurrency-bearing packages (scheduler, treecode
## kernels, cluster transports, distributed engines, chaos harness,
## observability, serving, fabric, load harness), smoke the /metrics
## exposition, replay the committed load trace through the virtual-time
## simulator and gate on its SLO, then run the fabric worker-crash matrix.
## load-check joins verify (unlike the timing-based bench-*-check gates)
## because the simulation is deterministic — it cannot flake on a loaded
## machine. Run bench-kernels-check as well before merging kernel-touching
## changes.
verify: build vet staticcheck test race obs-smoke load-check fabric-chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## staticcheck: run staticcheck over the observability and serving layers
## when the tool is on PATH; a bare toolchain skips it rather than failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/obs/... ./internal/serve/... ./cmd/...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

## race: race-test the concurrency-bearing packages and the root package
## at GOMAXPROCS=4, so scheduler-dependent paths always run with more than
## one P, whatever the machine's core count.
race:
	GOMAXPROCS=4 $(GO) test -race . ./internal/sched/... ./internal/core/... ./internal/cluster/... ./internal/engine/... ./internal/clusterchaos/... ./internal/serve/... ./internal/obs/... ./internal/loadgen/... ./internal/fabric/...

## obs-smoke: boot the instrumented serving stack on a loopback port, drive
## requests through it and fail on any malformed /metrics exposition line
## or missing metric family (cmd/obssmoke; uses the library's own
## Prometheus text-format validator, no external tools).
obs-smoke:
	$(GO) run ./cmd/obssmoke

## fuzz: short smoke of the native fuzz targets (wire-frame decoder, PQR
## parser, load-trace spec, fabric membership wire) on top of their
## committed seed corpora. CI-friendly budget; run with a larger -fuzztime
## locally to dig.
fuzz:
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 10s
	$(GO) test ./internal/molecule/ -run '^$$' -fuzz FuzzParsePQR -fuzztime 10s
	$(GO) test ./internal/loadgen/ -run '^$$' -fuzz FuzzTraceSpec -fuzztime 10s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s

## chaos: the full fault-injection acceptance matrix — every fault class ×
## both transports × P ∈ {2,4,8} × 8 seeds. The fatal classes each spend
## their receive timeout, so this takes minutes by design.
chaos:
	CHAOS_FULL=1 $(GO) test ./internal/clusterchaos/ -run TestChaosMatrix -timeout 30m -v

## fabric-chaos: the serving fabric's worker-crash matrix — victim index ×
## crash mode (HTTP-only vs full), each cell a live router + 3 engine
## workers with one killed mid-load. Asserts no accepted request
## lost, ring convergence, and router health on the survivors. Seconds of
## wall time, so it rides in verify.
fabric-chaos:
	FABRIC_CHAOS=1 $(GO) test ./internal/fabric/ -run TestChaosWorkerCrashMatrix -count=1 -timeout 10m

## load-check: SLO regression gate — replay the committed steady-mixed
## trace through the virtual-time simulator, untuned then with the
## admission tuner, and fail if the tuned run misses the trace's SLO,
## admits less throughput than the untuned baseline, or drifts >15% from
## the committed BENCH_slo.json (p99 up or admitted qps down). Pure
## simulation: deterministic, seconds of wall time, safe under CI load.
load-check:
	$(GO) run ./cmd/loadgen -trace traces/steady-mixed.json -check BENCH_slo.json

## load-bench: regenerate the committed BENCH_slo.json baseline from the
## steady-mixed trace. Commit the result alongside any intentional change
## to the trace, the tuner, or the simulator's cost model.
load-bench:
	$(GO) run ./cmd/loadgen -trace traces/steady-mixed.json -o BENCH_slo.json

## load-live: wall-clock smoke of the live replay path — boots a real
## server on a loopback port and drives the small committed live trace
## through it. Latencies are honest but machine-dependent; nothing is
## gated on them.
load-live:
	$(GO) run ./cmd/loadgen -trace traces/live-smoke.json -mode live

## bench: every figure/table benchmark at reduced scale.
bench:
	$(GO) test -bench=. -benchmem

## bench-kernels: regenerate the committed BENCH_kernels.json micro-benchmark
## report (flat vs recursive kernels, pooled evaluation, ParallelFor
## dispatch).
bench-kernels:
	$(GO) run ./cmd/benchkernels -o BENCH_kernels.json

## bench-kernels-check: perf regression gate — re-run the treecode kernels
## (min of 3 reps each) and fail if any evaluation kernel is >15% ns/op
## slower than the committed BENCH_kernels.json, or if a zero-alloc kernel
## started allocating. List rebuilds and scheduler microbenches are
## reported but not gated. Run on an otherwise-idle machine.
bench-kernels-check:
	$(GO) run ./cmd/benchkernels -check -o BENCH_kernels.json

## bench-comm: regenerate the committed BENCH_comm.json collective-layer
## report (in-process, TCP mesh and TCP star timings, modeled cluster costs).
bench-comm:
	$(GO) run ./cmd/benchcomm -o BENCH_comm.json

## serve-bench: regenerate the committed BENCH_serve.json serving-layer
## report (cold vs warm request latency through the prepared-problem cache,
## batched pose sweep vs sequential single requests).
serve-bench:
	$(GO) run ./cmd/benchserve -o BENCH_serve.json

## bench-stream: regenerate the committed BENCH_stream.json incremental-
## evaluation report (steady-state session frame vs from-scratch
## re-evaluation, session build cost, frame-speedup headline).
bench-stream:
	$(GO) run ./cmd/benchstream -o BENCH_stream.json

## bench-stream-check: perf regression gate — re-run the stream benchmarks
## (min of 3 reps each) and fail if any is >15% ns/op slower than the
## committed BENCH_stream.json, gained an allocation, or the incremental
## frame speedup fell below the 5x acceptance floor. Run on an
## otherwise-idle machine.
bench-stream-check:
	$(GO) run ./cmd/benchstream -check -o BENCH_stream.json
