/** @file Unit tests for the NvmDevice media-fault model: capacity
 *  budget, bit flips, torn/stuck cachelines, latency spikes, and the
 *  MIO_NVM_FAULTS env spec. */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "sim/nvm_device.h"
#include "util/clock.h"

namespace mio::sim {
namespace {

TEST(NvmFaultSpecTest, ParsesKeyValueTokens)
{
    NvmFaultSpec s = NvmFaultSpec::parse(
        "capacity=33554432;bitflip_rate=0.5;torn_rate=0.25;"
        "stuck_rate=0.125;spike_ns=50000;spike_rate=0.01");
    EXPECT_EQ(s.capacity_bytes, 33554432u);
    EXPECT_DOUBLE_EQ(s.bitflip_rate, 0.5);
    EXPECT_DOUBLE_EQ(s.torn_rate, 0.25);
    EXPECT_DOUBLE_EQ(s.stuck_rate, 0.125);
    EXPECT_EQ(s.spike_ns, 50000u);
    EXPECT_DOUBLE_EQ(s.spike_rate, 0.01);
    EXPECT_TRUE(s.anyRateFault());
}

TEST(NvmFaultSpecTest, SkipsMalformedTokensKeepsRest)
{
    NvmFaultSpec s =
        NvmFaultSpec::parse("garbage;bitflip_rate=oops;capacity=1024");
    EXPECT_EQ(s.capacity_bytes, 1024u);
    EXPECT_DOUBLE_EQ(s.bitflip_rate, 0.0);
    EXPECT_FALSE(s.anyRateFault());
}

TEST(NvmFaultTest, CapacityBudgetFailsAllocationNeverAborts)
{
    NvmDevice nvm;
    nvm.setCapacityBytes(1024);
    EXPECT_EQ(nvm.capacityBytes(), 1024u);

    char *a = nvm.allocateRegion(512);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(nvm.meters().bytes_allocated, 512u);

    // Over budget: nullptr, metered, budget untouched.
    EXPECT_EQ(nvm.allocateRegion(600), nullptr);
    EXPECT_EQ(nvm.faultMeters().alloc_failures, 1u);
    EXPECT_EQ(nvm.meters().bytes_allocated, 512u);

    // Freeing releases the budget.
    nvm.freeRegion(a);
    EXPECT_EQ(nvm.meters().bytes_allocated, 0u);
    char *b = nvm.allocateRegion(1024);
    ASSERT_NE(b, nullptr);
    nvm.freeRegion(b);

    // Lifting the budget makes allocation unlimited again.
    nvm.setCapacityBytes(0);
    char *c = nvm.allocateRegion(1 << 20);
    ASSERT_NE(c, nullptr);
    nvm.freeRegion(c);
}

TEST(NvmFaultTest, ArmedBitFlipCorruptsExactlyOneBit)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(256);
    ASSERT_NE(dst, nullptr);
    std::string src(256, '\x5a');

    nvm.armBitFlips(1);
    nvm.write(dst, src.data(), src.size());
    EXPECT_EQ(nvm.faultMeters().bits_flipped, 1u);

    int diff_bits = 0;
    for (size_t i = 0; i < src.size(); i++) {
        unsigned char x = static_cast<unsigned char>(dst[i]) ^
                          static_cast<unsigned char>(src[i]);
        while (x != 0) {
            diff_bits += x & 1;
            x >>= 1;
        }
    }
    EXPECT_EQ(diff_bits, 1);

    // Disarmed: the next write is clean.
    nvm.write(dst, src.data(), src.size());
    EXPECT_EQ(memcmp(dst, src.data(), src.size()), 0);
    nvm.freeRegion(dst);
}

TEST(NvmFaultTest, TornWriteLosesTailCacheline)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(256);
    ASSERT_NE(dst, nullptr);
    std::string old_bytes(256, 'A'), new_bytes(256, 'B');
    nvm.write(dst, old_bytes.data(), old_bytes.size());

    nvm.armTornWrites(1);
    nvm.write(dst, new_bytes.data(), new_bytes.size());
    EXPECT_EQ(nvm.faultMeters().torn_writes, 1u);

    // Head landed, the trailing 64B line kept its old contents.
    EXPECT_EQ(memcmp(dst, new_bytes.data(), 192), 0);
    EXPECT_EQ(memcmp(dst + 192, old_bytes.data(), 64), 0);
    nvm.freeRegion(dst);
}

TEST(NvmFaultTest, StuckCachelineKeepsOneOldLine)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(256);
    ASSERT_NE(dst, nullptr);
    std::string old_bytes(256, 'A'), new_bytes(256, 'B');
    nvm.write(dst, old_bytes.data(), old_bytes.size());

    nvm.armStuckCachelines(1);
    nvm.write(dst, new_bytes.data(), new_bytes.size());
    EXPECT_EQ(nvm.faultMeters().stuck_cachelines, 1u);

    int stuck_lines = 0;
    for (size_t off = 0; off < 256; off += 64) {
        if (memcmp(dst + off, old_bytes.data(), 64) == 0)
            stuck_lines++;
        else
            EXPECT_EQ(memcmp(dst + off, new_bytes.data(), 64), 0);
    }
    EXPECT_EQ(stuck_lines, 1);
    nvm.freeRegion(dst);
}

TEST(NvmFaultTest, ImageWritesAreExemptFromMediaFaults)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(256);
    ASSERT_NE(dst, nullptr);
    std::string src(256, '\x33');
    nvm.armBitFlips(1);
    nvm.armTornWrites(1);
    nvm.write(dst, src.data(), src.size(), WriteKind::kImage);
    // The bulk image copy is exempt; the armed faults stay pending.
    EXPECT_EQ(memcmp(dst, src.data(), src.size()), 0);
    EXPECT_EQ(nvm.faultMeters().bits_flipped, 0u);
    EXPECT_EQ(nvm.faultMeters().torn_writes, 0u);
    nvm.freeRegion(dst);
}

TEST(NvmFaultTest, LatencySpikeStallsTheChargedOp)
{
    NvmDevice nvm;  // zero-cost base model: any delay is the spike
    const uint64_t spike_ns = 2'000'000;  // 2 ms
    nvm.armLatencySpikes(1, spike_ns);
    uint64_t t0 = nowNanos();
    nvm.chargeWrite(8);
    uint64_t elapsed = nowNanos() - t0;
    EXPECT_EQ(nvm.faultMeters().latency_spikes, 1u);
    EXPECT_GE(elapsed, spike_ns / 2);

    // Disarmed: no residual stall.
    t0 = nowNanos();
    nvm.chargeWrite(8);
    EXPECT_LT(nowNanos() - t0, spike_ns / 2);
    EXPECT_EQ(nvm.faultMeters().latency_spikes, 1u);
}

TEST(NvmFaultTest, TargetedInjectionFlipsTheRequestedBit)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(16);
    ASSERT_NE(dst, nullptr);
    memset(dst, 0, 16);
    nvm.injectBitFlipAt(dst, 3, 5);
    EXPECT_EQ(static_cast<unsigned char>(dst[3]), 1u << 5);
    EXPECT_EQ(nvm.faultMeters().bits_flipped, 1u);
    nvm.freeRegion(dst);
}

TEST(NvmFaultTest, FaultRangesCoverExactlyTheDamagedBytes)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(4096);
    ASSERT_NE(dst, nullptr);
    memset(dst, 0, 4096);
    const std::string src(200, '\x5a');
    nvm.write(dst, src.data(), src.size());  // unarmed: nothing recorded
    EXPECT_TRUE(nvm.faultRanges().empty());

    nvm.armTornWrites(1);
    nvm.write(dst + 1024, src.data(), src.size());
    nvm.armStuckCachelines(1);
    nvm.write(dst + 2048, src.data(), src.size());
    nvm.armBitFlips(1);
    nvm.write(dst + 3072, src.data(), src.size());
    nvm.injectBitFlipAt(dst, 7, 1);

    const auto ranges = nvm.faultRanges();
    ASSERT_EQ(ranges.size(), 4u);
    // Torn: the trailing 64 bytes never landed.
    EXPECT_EQ(ranges[0].begin, dst + 1024 + 200 - 64);
    EXPECT_EQ(ranges[0].end, dst + 1024 + 200);
    // Stuck: one line inside the write, and it kept its old zeros.
    EXPECT_GE(ranges[1].begin, dst + 2048);
    EXPECT_LE(ranges[1].end, dst + 2048 + 200);
    EXPECT_EQ(ranges[1].begin[0], 0);
    // Bit flips: the one byte that differs.
    ASSERT_EQ(ranges[2].end - ranges[2].begin, 1);
    EXPECT_NE(ranges[2].begin[0], '\x5a');
    EXPECT_EQ(ranges[3].begin, dst + 7);
    EXPECT_EQ(ranges[3].end, dst + 8);
    // Every byte outside the recorded ranges holds what was written.
    for (size_t base : {size_t{1024}, size_t{2048}, size_t{3072}}) {
        for (size_t i = 0; i < src.size(); i++) {
            const char *p = dst + base + i;
            bool damaged = false;
            for (const NvmFaultRange &r : ranges)
                damaged = damaged || r.overlaps(p, p + 1);
            if (!damaged) {
                EXPECT_EQ(*p, '\x5a') << base << "+" << i;
            }
        }
    }
    // Freeing a region forgets its damage; another region's stays.
    char *other = nvm.allocateRegion(256);
    ASSERT_NE(other, nullptr);
    memset(other, 0, 256);
    nvm.injectBitFlipAt(other, 3, 0);
    nvm.freeRegion(dst);
    const auto left = nvm.faultRanges();
    ASSERT_EQ(left.size(), 1u);
    EXPECT_EQ(left[0].begin, other + 3);
    nvm.freeRegion(other);
    EXPECT_TRUE(nvm.faultRanges().empty());
}

TEST(NvmFaultTest, EnvSpecArmsTheDevice)
{
    ASSERT_EQ(setenv("MIO_NVM_FAULTS", "capacity=4096;spike_ns=1000", 1),
              0);
    {
        NvmDevice nvm;
        EXPECT_EQ(nvm.capacityBytes(), 4096u);
        EXPECT_EQ(nvm.faultSpec().spike_ns, 1000u);
    }
    unsetenv("MIO_NVM_FAULTS");
    NvmDevice clean;
    EXPECT_EQ(clean.capacityBytes(), 0u);
}

TEST(NvmFaultTest, FaultMetersStayOutOfTrafficMeters)
{
    NvmDevice nvm;
    char *dst = nvm.allocateRegion(128);
    ASSERT_NE(dst, nullptr);
    std::string src(128, 'x');
    nvm.write(dst, src.data(), src.size());
    uint64_t clean_written = nvm.meters().bytes_written;

    nvm.armBitFlips(1);
    nvm.write(dst, src.data(), src.size());
    // The faulty write is charged exactly like a clean one: WA
    // accounting must not see injected faults.
    EXPECT_EQ(nvm.meters().bytes_written, 2 * clean_written);
    nvm.freeRegion(dst);
}

} // namespace
} // namespace mio::sim
