#!/usr/bin/env bash
# Record the repo-root BENCH_*.json files from a Release build.
#
#   scripts/bench.sh [host_mips] [cluster_scaling] [cache_replacement] [file_service] [memory_tiers]   # default: all
#
# Guarantees enforced here (scripts/bench_json.py does the checking):
#   * Bench binaries are built with CMAKE_BUILD_TYPE=Release. If google-
#     benchmark sources are available (env BENCHMARK_SRC, third_party/
#     benchmark, or /usr/src/benchmark), the library itself is also rebuilt
#     in Release and used instead of the system one -- Debian's libbenchmark
#     is a debug build, which is why the originally recorded
#     BENCH_host_mips.json said "library_build_type": "debug". Without
#     sources, the system library is still only measurement scaffolding: all
#     measured code and the header-inlined timing loop live in our Release
#     binary, which attests itself via the custom context key
#     binary_build_type (see bench/microbench_host.cc).
#   * No BENCH_*.json is written unless the run's context passes the release
#     gate (library_build_type == release OR binary_build_type == release).
#   * Runs are APPENDED to the recorded file (schema ck-bench-runs-v1), never
#     silently overwritten; previously recorded runs that fail the gate are
#     dropped with a warning.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build-release
PREFIX_ARGS=()

# Rebuild google-benchmark in Release when its sources are reachable.
BENCHMARK_SRC="${BENCHMARK_SRC:-}"
for candidate in "$BENCHMARK_SRC" third_party/benchmark /usr/src/benchmark; do
  if [ -n "$candidate" ] && [ -f "$candidate/CMakeLists.txt" ]; then
    echo "== building google-benchmark (Release) from $candidate"
    cmake -S "$candidate" -B "$BUILD/benchmark-build" \
        -DCMAKE_BUILD_TYPE=Release \
        -DBENCHMARK_ENABLE_TESTING=OFF \
        -DBENCHMARK_ENABLE_GTEST_TESTS=OFF \
        -DCMAKE_INSTALL_PREFIX="$PWD/$BUILD/benchmark-prefix" >/dev/null
    cmake --build "$BUILD/benchmark-build" -j "$(nproc)" >/dev/null
    cmake --install "$BUILD/benchmark-build" >/dev/null
    PREFIX_ARGS=(-DCMAKE_PREFIX_PATH="$PWD/$BUILD/benchmark-prefix")
    break
  fi
done
if [ ${#PREFIX_ARGS[@]} -eq 0 ]; then
  echo "== google-benchmark sources not found; using the system library" \
       "(binary_build_type gates the recording instead)"
fi

echo "== configuring $BUILD (CMAKE_BUILD_TYPE=Release)"
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release "${PREFIX_ARGS[@]}" >/dev/null

record() {
  local file="$1" binary="$2"
  shift 2
  echo "== $binary -> $file"
  cmake --build "$BUILD" -j "$(nproc)" --target "$binary" >/dev/null
  local tmp
  tmp="$BUILD/bench/$binary.run.json"
  "$BUILD/bench/$binary" --benchmark_out="$tmp" --benchmark_out_format=json "$@"
  python3 scripts/bench_json.py append "$file" "$tmp" --require-release
}

want() {
  [ $# -eq 0 ] && return 1
  local name
  for name in "${TARGETS[@]}"; do
    if [ "$name" = "$1" ] || [ "$name" = all ]; then
      return 0
    fi
  done
  return 1
}

TARGETS=("${@:-all}")
# host_mips includes the guest-throughput benches (BM_GuestMips/0: slow
# reference, BM_GuestMips/1: superblock traces); min_time is raised so the
# recorded MIPS figures are steady-state, not warm-up.
want host_mips && record BENCH_host_mips.json microbench_host --benchmark_min_time=2.0
want cluster_scaling && record BENCH_cluster_scaling.json cluster_scaling
# cache_replacement first enforces the X6 gates (conservation per row, the
# guest fifo row equal to a host FIFO queue, zero sandbox faults and
# fallbacks, clock beats fifo on zipf, guest_mru beats clock on
# loop_over_cap) and only then records the sweep.
if want cache_replacement; then
  cmake --build "$BUILD" -j "$(nproc)" --target cache_replacement >/dev/null
  "$BUILD/bench/cache_replacement" --self-check
  record BENCH_cache_replacement.json cache_replacement
fi
# file_service self-checks zero-wire warm hits, the >= 10x warm speedup and
# the serial-vs-parallel differential on every measurement.
want file_service && record BENCH_file_service.json file_service
# memory_tiers sweeps the DRAM:slow split over the paging and DB workloads
# and self-checks the demotion-beats-eviction gates plus the tiered
# serial-vs-parallel cluster differential (docs/TIERING.md).
want memory_tiers && record BENCH_memory_tiers.json memory_tiers
echo "== done"
