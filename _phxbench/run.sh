#!/usr/bin/env bash
# Builds the phxbench benchmark from source and runs it. Run it from the root
# of the repository; the arguments go to the benchmark, for example
#
#   bash _phxbench/run.sh --workload kv-serve --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, Chrome
# traces) goes to .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/_phxbench" && go build -o "$out/phxbench" .) >&2
exec "$out/phxbench" --trace-dir "$out/trace" "$@"
