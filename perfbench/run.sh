#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload solo --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the checkout. The build fails (and nothing is printed on stdout)
# when the simulator's sources are not next to this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) 1>&2
cd "$root"
exec "$build/perfbench" "$@"
