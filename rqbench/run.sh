#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Run from the repository root, e.g.
#
#   bash rqbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache and temporary files, the binary,
# the shard stores and the traced run's spans. The build is offline
# (GOPROXY=off): the benchmark needs only this module and the standard
# library.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/rqbench" build -o "$out/rqbench" .
exec "$out/rqbench" "$@"
