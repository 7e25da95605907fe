#!/usr/bin/env bash
# Builds perfbench and the two daemons it launches, then runs perfbench
# from the repo root. Everything the build and the run write lands in
# .bench_build/, and no clock starts before the binaries exist.
#
#   bash _perfbench/run.sh --workload uvmsimd_runs --seed 1 --seconds 12 --trace 0
#   bash _perfbench/run.sh -regen-golden      # rewrite _perfbench/golden.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/_perfbench" && go build -o "$out/bin/" . uvmdiscard/cmd/uvmsimd uvmdiscard/cmd/uvmfleet) >&2

cd "$root"
exec "$out/bin/perfbench" "$@"
