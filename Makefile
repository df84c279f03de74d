GO ?= go

.PHONY: all build vet lint lint-report lint-baseline test race dist-test cluster-test bench-smoke bench bench-json bench-kernels serve-bench bench-obs ci clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (see DESIGN.md §11 and §16):
# determinism-source confinement, scheduler confinement, map-range
# ordering, hot-path allocation discipline, float-equality, and the
# concurrency/resource-lifecycle rules (ctxflow, lockhold,
# goroutine-lifecycle, pooldiscipline, errcheck-results), driven by
# lint.conf. Fails only on findings not recorded in lint-baseline.json;
# the intended steady state is an empty baseline and a clean tip.
lint:
	$(GO) run ./cmd/nnwc-lint -baseline lint-baseline.json ./...

# Machine-readable lint report (the CI artifact): the same run as `make
# lint` but as JSON, including waived findings with their //lint:waive
# justifications so suppressions stay auditable. Never fails: the report
# is for reading, `make lint` is the gate.
lint-report:
	-$(GO) run ./cmd/nnwc-lint -baseline lint-baseline.json -json ./... > lint-report.json

# Re-accept every current finding into lint-baseline.json. Use sparingly
# — when landing a new analyzer ahead of the cleanup it demands — and
# burn the baseline back down to [] as the findings are fixed.
lint-baseline:
	$(GO) run ./cmd/nnwc-lint -write-baseline lint-baseline.json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Multi-process distribution tests (see DESIGN.md §14): coordinator + real
# worker processes over HTTP, SIGKILLed and replaced mid-lease, with the
# final cross-validation byte-compared to the serial seed reference.
dist-test:
	$(GO) test -race -count 1 -v -run 'TestDist' ./internal/dist/ ./internal/dist/jobs/

# Cluster observability tests (see DESIGN.md §15): merged cluster-trace
# determinism across worker counts and across SIGKILL-plus-reassignment,
# per-worker metrics federation, and the shared request middleware, all
# under the race detector.
cluster-test:
	$(GO) test -race -count 1 -v -run 'TestClusterTrace|TestDistClusterTrace|TestCoordinatorMetricsFederation|TestInstrument' ./internal/dist/ ./internal/dist/jobs/ ./internal/httpx/

# One iteration of every benchmark: catches bit-rot in the bench harnesses
# without paying for real measurement runs.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Real measurement run for the hot training kernels (see DESIGN.md §6).
bench:
	$(GO) test -run '^$$' -bench 'Forward|Backprop|Epoch' -benchmem -benchtime 2s ./internal/nn ./internal/train

# Machine-readable benchmark of the parallel experiment plane (see
# DESIGN.md §7): CV folds, ensembles, and surface grids at workers=1 and
# workers=NumCPU, with speedups, written to BENCH_experiments.json.
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_experiments.json

# Machine-readable benchmark of the compute kernels (see DESIGN.md §13):
# tiled matmul GFLOP/s by shape and batched forward and backprop
# ns-per-sample, written to BENCH_kernels.json.
bench-kernels:
	$(GO) run ./cmd/kernelbench -out BENCH_kernels.json

# Machine-readable benchmark of the prediction server (see DESIGN.md §8):
# requests/sec and p50/p99 latency, single-request vs coalesced inference,
# at 1 and many concurrent clients, at the HTTP and inference layers,
# written to BENCH_serve.json.
serve-bench:
	$(GO) run ./cmd/servebench -out BENCH_serve.json

# Machine-readable benchmark of the observability layer (see DESIGN.md §9):
# ns/epoch and allocs/epoch with tracing disabled vs enabled, plus a
# determinism pre-check, written to BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/obsbench -out BENCH_obs.json

ci: build vet lint race bench-smoke

clean:
	rm -rf results
	$(GO) clean -testcache
