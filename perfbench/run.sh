#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
#
#   bash perfbench/run.sh --workload paper --seed 0 --seconds 40 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# traced-run files all go under .bench_build/, and so does the go command's
# user config directory, where it would otherwise keep telemetry counters.
# Build messages go to standard error, so the last line of standard output
# is the benchmark's result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" "$@"
