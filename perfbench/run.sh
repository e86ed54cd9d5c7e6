#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload hit --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the span dumps of traced runs go
# to $CARGO_TARGET_DIR (default .bench_build), inside the checkout; HOME
# and the XDG directories point there too, so the toolchain writes
# nothing outside it. A checkout without the module's sources fails the
# build, and the script exits nonzero without printing a result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

export HOME="$out/home"
export XDG_CACHE_HOME="$out/home/.cache"
export XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out" "$@"
