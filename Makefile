GO ?= go

.PHONY: all build vet lint lint-report lint-baseline test race dist-test cluster-test bench-smoke bench ci clean

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

# One iteration of every package benchmark: catches bit-rot without paying
# for real measurement runs. The end-to-end benchmark is _perfbench/run.sh.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# Real measurement run for the hot training kernels (see DESIGN.md §6 and
# §13): the tiled matmul by shape (GFLOP/s), batched forward and backprop,
# and whole epochs.
bench:
	$(GO) test -run '^$$' -bench 'MulTransBias|Forward|Backprop|Epoch' -benchmem -benchtime 2s ./internal/mat ./internal/nn ./internal/train

ci: build vet lint race bench-smoke

clean:
	rm -rf results
	$(GO) clean -testcache
