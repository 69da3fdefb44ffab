#!/usr/bin/env bash
# Builds the end-to-end benchmark from the FSR source tree this
# script sits in, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload serve-whatif --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, result
# records, traces) goes under .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "e2ebench: no FSR source tree at $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
cd "$root"
exec "$out/bin/e2ebench" "$@"
