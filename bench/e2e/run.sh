#!/usr/bin/env bash
# Builds bench_e2e from this checkout and runs it. From the repository root:
#
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1]   # all four workloads
#   bench/e2e/run.sh --self-test
#
# The build lives in build-bench/e2e; build output goes to stderr, so the
# last line of stdout is always the benchmark's JSON result.
set -euo pipefail

if [ ! -f bench/e2e/CMakeLists.txt ]; then
  echo "run.sh: run from the repository root" >&2
  exit 2
fi
build=build-bench/e2e
if [ ! -f "$build/.configured" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then
    generator=(-G Ninja)
  fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  touch "$build/.configured"
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

for arg in "$@"; do
  if [ "$arg" = "--workload" ] || [ "$arg" = "--self-test" ]; then
    exec "$build/bench_e2e" "$@" --commit "$commit"
  fi
done
status=0
for workload in lc-search fleet-triage service-stream record-load; do
  "$build/bench_e2e" --workload "$workload" "$@" --commit "$commit" || status=1
done
exit "$status"
