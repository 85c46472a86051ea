#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload job-zipf-miss --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache, the go command's own configuration and
# telemetry, and the span files stay under .bench_build at the repository
# root; nothing is fetched from a network.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
