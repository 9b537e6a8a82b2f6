/**
 * @file
 * Pins the fieldwise operations on the shared stats counters:
 * snapshotOf/loadInto round-trip every slot, statsDelta subtracts
 * counters but carries gauges, statsAdd sums everything except the
 * recovery timestamp, which it takes the max of.
 *
 * The snapshot is walked as a flat array of uint64_t slots, so every
 * element of every array field is covered without naming it; only the
 * gauges and a few layout anchors are named.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <set>
#include <type_traits>
#include <vector>

#include "kv/store_stats.h"

namespace mio {
namespace {

static_assert(std::is_trivially_copyable_v<StatsSnapshot>);
static_assert(std::is_standard_layout_v<StatsSnapshot>);

// 65 counters, 233 uint64_t slots once the arrays are flattened.
constexpr size_t kSlots = 233;
static_assert(sizeof(StatsSnapshot) == kSlots * sizeof(uint64_t));
static_assert(sizeof(StatsCounters) == kSlots * sizeof(uint64_t));

std::vector<uint64_t>
slotsOf(const StatsSnapshot &s)
{
    std::vector<uint64_t> v(kSlots);
    memcpy(v.data(), &s, sizeof(s));
    return v;
}

StatsSnapshot
fromSlots(const std::vector<uint64_t> &v)
{
    StatsSnapshot s;
    memcpy(static_cast<void *>(&s), v.data(), sizeof(s));
    return s;
}

/** A snapshot whose slot i holds f(i). */
template <typename F>
StatsSnapshot
filled(F f)
{
    std::vector<uint64_t> v(kSlots);
    for (size_t i = 0; i < kSlots; i++)
        v[i] = f(i);
    return fromSlots(v);
}

#define MIO_SLOT(field) (offsetof(StatsSnapshot, field) / sizeof(uint64_t))

/** Slots whose phase delta is the later reading, not a difference. */
std::set<size_t>
carriedSlots()
{
    return {MIO_SLOT(fence_bytes),
            MIO_SLOT(snapshots_live),
            MIO_SLOT(snapshots_pinned_manifests),
            MIO_SLOT(vlog_segments_live),
            MIO_SLOT(recovery_ms_to_ready),
            MIO_SLOT(gov_memtable_bytes),
            MIO_SLOT(gov_nvm_buffer_bytes),
            MIO_SLOT(gov_vlog_bytes),
            MIO_SLOT(gov_memtable_limit)};
}

TEST(StatsTest, FieldOrderIsPinned)
{
    // The live counters and the snapshot share one field order; hot
    // atomics keep their offsets (and so their cache lines).
#define MIO_EXPECT_AT(field, slot)                                        \
    do {                                                                  \
        EXPECT_EQ(offsetof(StatsSnapshot, field), (slot) * 8u) << #field; \
        EXPECT_EQ(offsetof(StatsCounters, field), (slot) * 8u) << #field; \
    } while (0)
    MIO_EXPECT_AT(interval_stall_ns, 0);
    MIO_EXPECT_AT(user_bytes_written, 7);
    MIO_EXPECT_AT(puts, 14);
    MIO_EXPECT_AT(gets, 15);
    MIO_EXPECT_AT(fence_bytes, 23);
    MIO_EXPECT_AT(group_size_hist, 27);
    MIO_EXPECT_AT(write_slowdowns, 35);
    MIO_EXPECT_AT(snapshots_live, 44);
    MIO_EXPECT_AT(vlog_appends, 46);
    MIO_EXPECT_AT(vlog_segments_live, 54);
    MIO_EXPECT_AT(wal_frames_on_demand, 56);
    MIO_EXPECT_AT(recovery_ms_to_ready, 57);
    MIO_EXPECT_AT(cache_hits, 58);
    MIO_EXPECT_AT(gov_memtable_bytes, 60);
    MIO_EXPECT_AT(gov_memtable_limit, 63);
    MIO_EXPECT_AT(sched_submitted, 64);
    MIO_EXPECT_AT(sched_run_ns, 96);
    MIO_EXPECT_AT(sched_queue_hist, 104);
    MIO_EXPECT_AT(sched_run_hist, 168);
    MIO_EXPECT_AT(sched_escalations, 232);
#undef MIO_EXPECT_AT
}

TEST(StatsTest, LoadIntoThenSnapshotOfRoundTripsEverySlot)
{
    const StatsSnapshot in =
        filled([](size_t i) { return 0x1000 + 7 * i; });
    StatsCounters c;
    loadInto(in, &c);
    EXPECT_EQ(slotsOf(snapshotOf(c)), slotsOf(in));

    // Named reads see the same values as the flat walk.
    EXPECT_EQ(c.puts.load(), 0x1000u + 7 * MIO_SLOT(puts));
    EXPECT_EQ(c.sched_run_hist[7][7].load(),
              0x1000u + 7 * MIO_SLOT(sched_escalations) - 7);
}

TEST(StatsTest, FreshCountersSnapshotToZero)
{
    StatsCounters c;
    EXPECT_EQ(slotsOf(snapshotOf(c)), std::vector<uint64_t>(kSlots, 0));
    EXPECT_EQ(slotsOf(StatsSnapshot{}), std::vector<uint64_t>(kSlots, 0));
}

TEST(StatsTest, DeltaSubtractsCountersAndCarriesGauges)
{
    const StatsSnapshot later =
        filled([](size_t i) { return 1'000'000 + 1000 * i; });
    const StatsSnapshot earlier = filled([](size_t i) { return 3 * i + 1; });
    const std::vector<uint64_t> d = slotsOf(statsDelta(later, earlier));
    const std::vector<uint64_t> a = slotsOf(later);
    const std::vector<uint64_t> b = slotsOf(earlier);
    const std::set<size_t> carried = carriedSlots();
    ASSERT_EQ(carried.size(), 9u);
    for (size_t i = 0; i < kSlots; i++) {
        const uint64_t want = carried.count(i) ? a[i] : a[i] - b[i];
        EXPECT_EQ(d[i], want) << "slot " << i;
    }
}

TEST(StatsTest, AddSumsEverythingButTakesMaxOfReadyTime)
{
    const size_t ready = MIO_SLOT(recovery_ms_to_ready);
    const StatsSnapshot x = filled([](size_t i) { return 10 * i + 5; });
    const StatsSnapshot y = filled([](size_t i) { return 1000 + i; });
    for (const auto &[first, second] :
         {std::pair{x, y}, std::pair{y, x}}) {
        StatsSnapshot acc = first;
        statsAdd(&acc, second);
        const std::vector<uint64_t> got = slotsOf(acc);
        const std::vector<uint64_t> p = slotsOf(first);
        const std::vector<uint64_t> q = slotsOf(second);
        for (size_t i = 0; i < kSlots; i++) {
            const uint64_t want =
                i == ready ? std::max(p[i], q[i]) : p[i] + q[i];
            EXPECT_EQ(got[i], want) << "slot " << i;
        }
    }
    // Gauges sum: each governor publishes into exactly one sink, so a
    // sum over shards never counts a budget twice.
    StatsSnapshot acc;
    acc.gov_memtable_limit = 4;
    acc.vlog_segments_live = 2;
    StatsSnapshot more;
    more.gov_memtable_limit = 6;
    more.vlog_segments_live = 3;
    statsAdd(&acc, more);
    EXPECT_EQ(acc.gov_memtable_limit, 10u);
    EXPECT_EQ(acc.vlog_segments_live, 5u);
}

} // namespace
} // namespace mio
