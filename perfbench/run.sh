#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; every
# argument passes through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-saturated --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare DIR_PARENT DIR_CHANGE
#   bash perfbench/run.sh figures --write perfbench/README.md
#
# The build cache, temporary files, the go command's own configuration
# and telemetry counters (under XDG_CONFIG_HOME) and all outputs stay
# under .bench_build/ in the checkout. Outside a full checkout (no
# ../go.mod for the replace directive) the build fails and so does this
# script.
set -euo pipefail
out=.bench_build/perfbench
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp"
export XDG_CONFIG_HOME="$PWD/$out/config" GOPATH="$PWD/$out/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -buildvcs=false -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
