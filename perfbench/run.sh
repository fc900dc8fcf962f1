#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload paper-campaign --seed 1 --seconds 30 --trace 0
#
# The build cache, the go command's own state, the binary and every file a
# run writes stay under .bench_build/ in the repository root.
set -eu
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
