#!/usr/bin/env bash
# Builds the dfcheck benchmark from source and runs it with the given
# flags. Run it from the repository root:
#
#   bash bench/run.sh -workload table1 -seed 1 -seconds 45 -trace 0
#
# Everything the go command would write elsewhere lives under
# .bench_build/ in the current directory, so a run writes nothing outside
# the checkout: the build cache and temporary files, GOPATH, and, through
# HOME and XDG_CONFIG_HOME, the go command's configuration and telemetry
# files. GOTOOLCHAIN=local keeps the go command from fetching another
# toolchain. Without the repository next to bench/ the build fails and
# the script exits non-zero before anything is measured.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local

go -C "$here" build -buildvcs=false -o "$out/dfbench" .
exec "$out/dfbench" "$@"
