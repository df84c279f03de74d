#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it.
#
#   bash _perfbench/run.sh --workload reproduce-quick --seed 2006 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# scratch files and traces all stay under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is read or written outside the checkout
# except the Go toolchain itself. The last line of standard output is the
# JSON result; build messages go to standard error.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=-mod=readonly

(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
