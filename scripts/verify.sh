#!/usr/bin/env bash
# Tier-1 verify flow:
#   1. default build + full ctest (the seed gate), and
#   2. a Release (-O3 -DNDEBUG) build + ctest leg, because the guest-execution
#      fast path is only meaningfully exercised under the optimizer and the
#      differential suite (fastpath_test) must hold there too, and
#   3. an ASan+UBSan build + ctest leg — the checkpoint/restore paths move
#      raw byte buffers across kernels and must be clean under both
#      sanitizers, and
#   4. a ThreadSanitizer build running the cluster suite — the parallel
#      cluster driver (src/sim/cluster.h) runs machines on host worker
#      threads, the simulator's only host parallelism, and its isolation
#      contract (machines share nothing during a window; exchanges happen
#      only at barriers) must be clean under TSan. The leg also runs the
#      tickless-idle differential and the A2/A3 self-checks: helper threads
#      call Machine::RunUntil, whose deadline bounds idle jumps and is
#      per-machine state, and
#   5. a formatting lint (clang-format --dry-run --Werror against the
#      repo-root .clang-format) over src/, tests/ and bench/ — skipped with
#      a warning when clang-format is not installed.
#
# The default and Release legs fail when their build prints a compiler
# warning. The run ends with one summary line per leg: ran, or skipped and
# why, so a final "verify: OK" cannot hide a leg that never ran.
#
# Usage: scripts/verify.sh [--release-only] [--san-only] [--tsan-only] [--lint-only]

set -euo pipefail
cd "$(dirname "$0")/.."

run_default=true
run_release=true
run_san=true
run_tsan=true
run_lint=true
case "${1:-}" in
  --release-only) run_default=false; run_san=false; run_tsan=false; run_lint=false ;;
  --san-only)     run_default=false; run_release=false; run_tsan=false; run_lint=false ;;
  --tsan-only)    run_default=false; run_release=false; run_san=false; run_lint=false ;;
  --lint-only)    run_default=false; run_release=false; run_san=false; run_tsan=false ;;
  "") ;;
  *) echo "usage: scripts/verify.sh [--release-only|--san-only|--tsan-only|--lint-only]" >&2; exit 2 ;;
esac

# One summary line per leg, printed in this order at the end.
LEGS=(lint default release san tsan)
declare -A LEG_STATUS
for leg in "${LEGS[@]}"; do
  LEG_STATUS[$leg]="skipped: not selected by ${1:-}"
done
note_leg() { LEG_STATUS[$1]=$2; }

# Build a tree and fail if the compiler printed any warning. An incremental
# build only checks the files it recompiles.
build_without_warnings() {
  local log
  log=$(mktemp)
  cmake --build "$1" -j 2>&1 | tee "$log"
  if grep -q 'warning:' "$log"; then
    echo "verify: the $1 build printed warnings:" >&2
    grep 'warning:' "$log" >&2
    rm -f "$log"
    exit 1
  fi
  rm -f "$log"
}

# Files held to the .clang-format contract. Grow this list with each change
# that formats a file cleanly; the goal is eventually `git ls-files '*.cc'
# '*.h'`.
LINT_FILES=(
  bench/cache_replacement.cc
  src/ck/cache_kernel.h
  src/ck/config.h
  src/ck/object_cache.h
  src/ck/physmap.h
  src/ck/policy.h
  src/isa/sandbox.h
  tests/base_test.cc
  tests/object_cache_test.cc
  tests/policy_vm_test.cc
  tests/property_test.cc
)

if $run_lint; then
  if command -v clang-format >/dev/null 2>&1; then
    echo "== lint: clang-format --dry-run --Werror (${#LINT_FILES[@]} files) =="
    clang-format --dry-run --Werror "${LINT_FILES[@]}"
    note_leg lint "ran (${#LINT_FILES[@]} files)"
  else
    echo "== lint: clang-format not installed; skipping format check ==" >&2
    note_leg lint "skipped: clang-format not installed"
  fi
fi

if $run_default; then
  echo "== tier-1: default build + ctest =="
  cmake -B build -S .
  build_without_warnings build
  ctest --test-dir build --output-on-failure -j "$(nproc)"

  # Explicit re-run of the cluster-trace fixture (also part of the full ctest
  # above): multi-MPM with tracing + profiler + flight recorder, then the
  # causal-span/flight-record checker. Kept visible here because it is the
  # end-to-end gate on the observability pipeline.
  echo "== cluster trace fixture (multi-MPM causal trace + flight recorder) =="
  ctest --test-dir build -R 'cluster_trace' --output-on-failure
  note_leg default "ran (warning-free build + full ctest)"
fi

if $run_release; then
  echo "== tier-1: Release (-O3 -DNDEBUG) build + ctest =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  build_without_warnings build-release
  ctest --test-dir build-release --output-on-failure -j "$(nproc)"

  echo "== fast-path speedup and policy-VM cost (Release; median and CV of 5 repetitions) =="
  ./build-release/bench/microbench_host --benchmark_filter='BM_GuestMips|BM_PolicyVm' \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
  note_leg release "ran (warning-free build + full ctest + BM_GuestMips and BM_PolicyVm x5)"
fi

if $run_san; then
  echo "== tier-1: ASan+UBSan build + ctest =="
  cmake -B build-san -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-san -j
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
      ctest --test-dir build-san --output-on-failure -j "$(nproc)"

  # PolicyEngine gates under ASan+UBSan: the sandboxed policy VM interprets
  # untrusted guest programs over a raw feature window, exactly the kind of
  # code that must be sanitizer-clean (docs/POLICY_VM.md).
  echo "== ASan: cache_replacement --self-check (PolicyEngine gates) =="
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
      ./build-san/bench/cache_replacement --self-check
  note_leg san "ran (build + full ctest + cache_replacement --self-check)"
fi

if $run_tsan; then
  echo "== ThreadSanitizer build + cluster suite =="
  cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j --target cluster_test sim_test cluster_scaling \
      fs_test property_test memory_tiers policy_vm_test cache_replacement \
      tickless_test ablation_quota ablation_rt_lock
  # property_test carries the tiered conservation storms plus the guest-policy
  # storms, fs_test the tiered netboot serial-vs-parallel
  # differential, policy_vm_test the sandbox confinement suite, and the
  # memory_tiers fixture the tiered cluster-determinism gate (docs/TIERING.md)
  # -- all must be clean under TSan with tiering enabled. tickless_test and
  # the A2/A3 self-checks cover idle jumps inside RunUntil.
  TSAN_OPTIONS=halt_on_error=1 \
      ctest --test-dir build-tsan \
      -R 'cluster_test|sim_test|cluster_scaling|fs_test|property_test|memory_tiers|policy_vm_test|tickless_test|ablation_quota_self_check|ablation_rt_lock_self_check' \
      --output-on-failure

  echo "== TSan: cache_replacement --self-check (PolicyEngine gates) =="
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/cache_replacement --self-check
  note_leg tsan "ran (cluster suite + tickless_test + ablation_quota/ablation_rt_lock --self-check + cache_replacement --self-check)"
fi

echo "== summary =="
for leg in "${LEGS[@]}"; do
  printf '%-8s %s\n' "$leg" "${LEG_STATUS[$leg]}"
done
echo "verify: OK"
