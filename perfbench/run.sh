#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay under .bench_build
# inside the checkout. A directory without the repository's sources fails
# the build, so the command exits non-zero without printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
