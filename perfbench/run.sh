#!/usr/bin/env bash
# Builds the shipped oocraxml binary and the benchmark runner from the
# checkout's sources, then runs one workload. Run from the repository
# root; everything the build and the run write stays under .bench_build:
#
#   bash perfbench/run.sh --workload spr-search --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/oocraxml" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/oocraxml here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/oocraxml" ./cmd/oocraxml >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin/oocraxml" "$@"
