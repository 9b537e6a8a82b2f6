#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass.
#
# Usage:
#   scripts/check.sh            # normal build + ctest, then TSan pass
#   scripts/check.sh --tsan-only
#
# The TSan pass rebuilds into build-tsan/ with MIO_SANITIZE=thread and
# runs the concurrency-sensitive tests (writer-group handoff, lock-free
# readers, recovery) under the race detector. Set MIO_TSAN_TESTS to a
# ctest -R regex to widen/narrow the TSan selection.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
TSAN_TESTS="${MIO_TSAN_TESTS:-group_commit_test|miodb_concurrency_test|multiwriter_test|miodb_recovery_test|failpoint_test|bloom_summary_test|fence_index_test|flush_shutdown_test|fault_soak_test|sched_test|sharded_store_test|snapshot_iterator_test|value_log_test|crash_sweep_test|memory_governor_test|zero_copy_merge_test|lazy_copy_merge_test|merge_staleness_test}"

if [ "${1:-}" != "--tsan-only" ]; then
    echo "=== tier-1: build + full test suite"
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    (cd build && ctest --output-on-failure -j "$JOBS")
    echo "=== read-path bench smoke (keeps bench/micro_readpath honest)"
    build/bench/micro_readpath --smoke
    echo "=== readpath suite (manifests, bloom summaries, DRAM fence index)"
    (cd build && ctest --output-on-failure -L readpath)
    echo "=== fault sweep (fault suite, then the soak under each fault class)"
    scripts/fault_sweep.sh
    echo "=== sched suite (unified background-job scheduler)"
    (cd build && ctest --output-on-failure -L sched)
    echo "=== shard suite (horizontal sharding facade)"
    (cd build && ctest --output-on-failure -L shard)
    echo "=== shard bench smoke (keeps the scale-out sweep honest)"
    build/bench/micro_multiwriter --shard_sweep --smoke
    echo "=== snapshot suite (pinned snapshots + cross-level DBIterator)"
    (cd build && ctest --output-on-failure -L snapshot)
    echo "=== scan bench smoke (keeps bench/micro_scan honest)"
    build/bench/micro_scan --smoke
    echo "=== vlog suite (key-value separation: value log + GC)"
    (cd build && ctest --output-on-failure -L vlog)
    echo "=== vlog bench smoke (keeps bench/micro_vlog honest)"
    build/bench/micro_vlog --smoke
    echo "=== debug-build leg (pin-leak + governor-ledger asserts are NDEBUG-gated)"
    cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
    cmake --build build-debug -j "$JOBS" \
          --target edge_case_test snapshot_iterator_test memory_governor_test
    (cd build-debug &&
         ctest --output-on-failure \
               -R "edge_case_test|snapshot_iterator_test|memory_governor_test")
    echo "=== ASan/UBSan leg (full suite, LeakSanitizer on)"
    cmake -B build-asan -S . -DMIO_SANITIZE=address >/dev/null
    cmake --build build-asan -j "$JOBS"
    (cd build-asan &&
         UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
         ctest --output-on-failure -j "$JOBS")
    echo "=== no bare sleep-polling on background control paths"
    if grep -rn "sleep_for" src/sched src/miodb src/lsm src/shard; then
        echo "error: background paths must wait on the scheduler" >&2
        exit 1
    fi
fi

echo "=== TSan: rebuild with MIO_SANITIZE=thread"
cmake -B build-tsan -S . -DMIO_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
echo "=== TSan: running tests matching: $TSAN_TESTS"
(cd build-tsan &&
     TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
     ctest --output-on-failure -R "$TSAN_TESTS")
echo "all checks passed"
