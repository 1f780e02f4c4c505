#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload cold-energy --seed 1 --seconds 18 --trace 0
# Run it from the root of the repository. Build outputs and the Go build
# cache go to .bench_build/ there, so nothing is written outside it.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/go-cache" GOPATH="${out}/go-path" XDG_CONFIG_HOME="${out}/config" GOTMPDIR="${out}/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" "$@"
