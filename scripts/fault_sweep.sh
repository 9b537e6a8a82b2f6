#!/usr/bin/env bash
# Media-fault tolerance sweep.
#
# Usage:
#   scripts/fault_sweep.sh            # suite + env-armed soak matrix
#
# Builds, runs the fault-labelled tests (`ctest -L fault`: the NVM
# fault-model unit tests, exhaustion backpressure, scrubber/integrity,
# the concurrency soak and the SSD retry tests), then re-runs the soak
# binary under an MIO_NVM_FAULTS matrix covering each fault class the
# device can inject: capacity exhaustion, bit flips, torn writes,
# stuck cachelines, and latency spikes.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

echo "=== fault sweep: build"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

echo "=== fault sweep: ctest -L fault"
(cd build && ctest --output-on-failure -L fault)

# Env-armed soak matrix: the same soak binary, each stage arming a
# different fault class through the device's MIO_NVM_FAULTS spec. The
# soak asserts every get returns the written value, or not-found before
# the put was acknowledged, while the background scrubber races the
# traffic. Corruption is the right answer only for a key whose value
# frame or node overlaps a fault the device recorded.
run_stage() {
    local name="$1" spec="$2"
    echo "=== fault sweep: soak [$name] MIO_NVM_FAULTS=\"$spec\""
    MIO_NVM_FAULTS="$spec" build/tests/fault_soak_test \
        --gtest_filter='FaultSoakTest.ConcurrentTrafficUnderSpikesAndScrubber'
}

run_stage exhaustion "capacity=67108864"
run_stage bitflip    "bitflip_rate=0.001"
run_stage torn       "torn_rate=0.001;stuck_rate=0.001"
run_stage spike      "spike_rate=0.01;spike_ns=100000"

echo "fault sweep passed (suite + 4 fault-class soak stages)"
