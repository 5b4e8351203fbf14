#!/usr/bin/env bash
# Builds the benchmark and ilplimitd from this checkout's source, then
# runs one workload; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload suite-live --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Build outputs, the Go build cache,
# trace stores and traced-run artifacts all stay under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/" . ilplimit/cmd/ilplimitd)
exec "$out/perfbench" -work "$out" -ilplimitd "$out/ilplimitd" "$@"
