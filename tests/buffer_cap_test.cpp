/** @file Tests for the elastic-buffer NVM ceiling (the Fig. 14 knob). */
#include <gtest/gtest.h>

#include "miodb/miodb.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

TEST(BufferCapTest, CapThrottlesAndBoundsFootprint)
{
    // Deterministic background: queued flushes and merges run only
    // while a writer waits on store progress, so migration never keeps
    // the buffer under the cap on its own and the writer reaches the
    // over-cap wait in every interleaving.
    sim::NvmDevice nvm(sim::MemoryPerfModel::optaneDefault());
    MioOptions o;
    o.memtable_size = 16 << 10;
    o.elastic_levels = 2;
    o.nvm_buffer_cap_bytes = 64 << 10;  // 4 memtables worth
    o.deterministic_background = true;
    // The cap throttles the elastic buffer; keep the 1 KiB values
    // inline so they actually land there instead of the value log.
    o.value_separation_threshold = 0;
    MioDB db(o, &nvm);

    std::string value(1024, 'c');
    size_t peak = 0;
    for (int i = 0; i < 2000; i++) {
        ASSERT_TRUE(db.put(makeKey(i), value).isOk());
        peak = std::max(peak, db.elasticBufferBytes());
    }
    db.waitIdle();
    // Footprint stays near the cap (one rotation of slack).
    EXPECT_LE(peak, o.nvm_buffer_cap_bytes + 4 * o.memtable_size);
    // Throttling registered as cumulative stalls.
    EXPECT_GT(db.stats().cumulative_stall_ns.load(), 0u);
    // Nothing lost.
    std::string v;
    for (int i = 0; i < 2000; i += 97)
        ASSERT_TRUE(db.get(makeKey(i), &v).isOk()) << i;
}

TEST(BufferCapTest, DeepBufferDrainsUnderCapPressure)
{
    // Regression: with many levels, single leftover tables per level
    // once pinned the footprint above the cap forever (writer
    // livelock). Demotion must cascade them to the repository.
    sim::NvmDevice nvm;
    MioOptions o;
    o.memtable_size = 16 << 10;
    o.elastic_levels = 8;
    o.nvm_buffer_cap_bytes = 48 << 10;  // 3 memtables worth
    o.value_separation_threshold = 0;  // keep values in the buffer
    MioDB db(o, &nvm);

    std::string value(1024, 'd');
    for (int i = 0; i < 1500; i++)
        ASSERT_TRUE(db.put(makeKey(i), value).isOk());
    db.waitIdle();
    std::string v;
    for (int i = 0; i < 1500; i += 111)
        ASSERT_TRUE(db.get(makeKey(i), &v).isOk()) << i;
}

TEST(BufferCapTest, UnlimitedByDefault)
{
    sim::NvmDevice nvm;
    MioOptions o;
    o.memtable_size = 16 << 10;
    o.elastic_levels = 3;
    MioDB db(o, &nvm);
    std::string value(256, 'u');
    for (int i = 0; i < 2000; i++)
        ASSERT_TRUE(db.put(makeKey(i), value).isOk());
    EXPECT_EQ(db.stats().cumulative_stall_ns.load(), 0u);
}

} // namespace
} // namespace mio::miodb
