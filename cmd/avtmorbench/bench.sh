#!/usr/bin/env bash
# Builds avtmorbench from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/avtmorbench/bench.sh --workload paper-s3 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the daemons' stores and the span files all
# stay under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cmd/avtmorbench/main.go ]; then
	echo "bench.sh: run from the root of an avtmor checkout" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

go build -o "$out/avtmorbench" ./cmd/avtmorbench
exec "$out/avtmorbench" -dir "$out/run" "$@"
