#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash ustorebench/run.sh --workload restore-storm --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) goes
# under .bench_build/ at the root of the checkout. The last line of standard
# output is the result JSON; progress goes to standard error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/ustorebench"
mkdir -p "$out/cache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/ustorebench" .)
exec "$out/ustorebench" "$@"
