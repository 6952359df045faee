#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Run it from the root of the checkout:
#
#	bash perfbench/run.sh --workload detect --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build:
# the binary, the Go build cache, temporary files, data directories and
# traces. No network is used: the module has no dependencies.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench.new" .
mv -f "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
