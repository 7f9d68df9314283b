#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload from the checkout root:
#
#   bash perfbench/run.sh --workload synth_flow --seed 1 --seconds 35 --trace 0
#
# Every build artefact (binary, Go build cache, Go's own config and
# telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
