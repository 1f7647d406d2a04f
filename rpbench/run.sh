#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash rpbench/run.sh --workload assess_stream --seed 1 --seconds 20 --trace 0
# Run from the repository root. The binary, the Go build cache and the
# run's state directories all stay under .bench_build/ in the checkout.
#
# The benchmark runs with GOMAXPROCS=1, so the measured process needs one
# vCPU: on a shared 2-vCPU host, load on the other vCPU (another tenant,
# hypervisor steal) then barely reaches it. With a CPU-bound competitor
# on the other vCPU, a sweep_grid run's p50 moved 0% at GOMAXPROCS=1 and
# +26% at GOMAXPROCS=2.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/rpbench" && go build -o "$out/rpbench" .)
GOMAXPROCS=1 exec "$out/rpbench" "$@"
