#!/usr/bin/env bash
# Builds segridd and the benchmark from the checkout's sources, then runs one
# workload. Run from the repository root:
#
#   bash segridbench/run.sh --workload verify-warm --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/segridd" || ! -f "$root/segridbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/segridd and segridbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/segridd" ./cmd/segridd
(cd segridbench && go build -o "$out/segridbench" .)
exec "$out/segridbench" -segridd "$out/segridd" -workdir "$out/work" "$@"
