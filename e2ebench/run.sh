#!/usr/bin/env bash
# Builds the end-to-end campaign benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload batch-3d --seed 1 --seconds 30 --trace 0
#
# Every file the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ at the repository root, and the build never
# touches the network: the benchmark module depends only on the
# repository's own module, resolved through a local replace directive.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$bench_dir" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
