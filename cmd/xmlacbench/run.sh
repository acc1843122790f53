#!/usr/bin/env bash
# Builds the benchmark and the xmlac binary from this checkout's sources and
# runs the benchmark, passing the arguments through:
#
#   bash cmd/xmlacbench/run.sh --workload read-sql --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Binaries, the Go build cache and the
# run's scratch files all stay under .bench_build/xmlacbench there.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/xmlacbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/xmlacbench" . && go build -o "$out/xmlac" xmlac/cmd/xmlac)
exec "$out/xmlacbench" --xmlac "$out/xmlac" --workdir "$out" "$@"
