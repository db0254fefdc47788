#!/usr/bin/env bash
# Builds the benchmark harness and the etude CLI from this checkout into
# .bench_build/, then runs one workload:
#
#   bash perfbench/run.sh --workload serve-large --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"

if [[ ! -f "${root}/src/CMakeLists.txt" ]]; then
  echo "perfbench: no etude sources next to perfbench/ (${root}/src)" >&2
  exit 1
fi

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  cmake -S "${root}/perfbench" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "${build}" --target perfbench -j "$(nproc)" >&2

exec "${build}/perfbench" "$@"
