#!/usr/bin/env bash
# Builds the benchmark, cmd/admitd and cmd/experiments from this checkout,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. Build outputs, the Go build cache and the
# run's scratch files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$build/perfbench" .
	go build -o "$build/admitd" repro/cmd/admitd
	go build -o "$build/experiments" repro/cmd/experiments
)

cd "$root"
exec "$build/perfbench" -admitd "$build/admitd" -experiments "$build/experiments" -work "$build/work" "$@"
