#!/usr/bin/env bash
# The benchmark's one command. From the root of a checkout:
#
#   bash bench/run.sh                          a whole result set (25 min, up to three times that when the noise guard re-runs)
#   bash bench/run.sh --workload hot_zipf --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare old.json new.json
#
# It builds the unmodified afqserver and afqrouter and the benchmark's own
# afqbench from source into .bench_build/ and hands its arguments to
# afqbench; without arguments it runs -set. Everything it writes, the Go
# build cache included, stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/afqserver ./cmd/afqrouter >&2
(cd cmd/afqbench && go build -o "$build/bin/afqbench" .) >&2

if [ $# -eq 0 ]; then
	set -- -set
fi
# afqbench finds the binaries, its temporary directory and bench/out by
# their paths from the root, which is the working directory.
exec .bench_build/bin/afqbench "$@"
