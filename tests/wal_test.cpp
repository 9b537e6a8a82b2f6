/** @file Unit tests for the NVM write-ahead log. */
#include <gtest/gtest.h>

#include "util/clock.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace mio::wal {
namespace {

TEST(WalTest, AppendAndReplay)
{
    sim::NvmDevice nvm;
    LogSegment log(&nvm);
    ASSERT_TRUE(log.append(Slice("record one")).isOk());
    ASSERT_TRUE(log.append(Slice("record two")).isOk());
    ASSERT_TRUE(log.append(Slice("")).isOk());

    LogReader reader(&log);
    std::string r;
    ASSERT_TRUE(reader.readRecord(&r));
    EXPECT_EQ(r, "record one");
    ASSERT_TRUE(reader.readRecord(&r));
    EXPECT_EQ(r, "record two");
    ASSERT_TRUE(reader.readRecord(&r));
    EXPECT_EQ(r, "");
    EXPECT_FALSE(reader.readRecord(&r));
    EXPECT_FALSE(reader.sawCorruption());
}

TEST(WalTest, ManyRecordsAcrossChunks)
{
    sim::NvmDevice nvm;
    LogSegment log(&nvm);
    std::string payload(100 * 1024, 'p');  // forces chunk rollover
    const int n = 25;
    for (int i = 0; i < n; i++) {
        std::string rec = std::to_string(i) + ":" + payload;
        ASSERT_TRUE(log.append(Slice(rec)).isOk());
    }
    LogReader reader(&log);
    std::string r;
    for (int i = 0; i < n; i++) {
        ASSERT_TRUE(reader.readRecord(&r)) << i;
        EXPECT_TRUE(r.rfind(std::to_string(i) + ":", 0) == 0);
    }
    EXPECT_FALSE(reader.readRecord(&r));
}

TEST(WalTest, OversizedRecordGetsOwnChunk)
{
    sim::NvmDevice nvm;
    LogSegment log(&nvm);
    std::string huge(3 << 20, 'h');
    ASSERT_TRUE(log.append(Slice(huge)).isOk());
    LogReader reader(&log);
    std::string r;
    ASSERT_TRUE(reader.readRecord(&r));
    EXPECT_EQ(r.size(), huge.size());
}

TEST(WalTest, ReplayChargesOneReadPerChunk)
{
    // Replay reads a chunk like any other log walk: one media latency,
    // then its bytes. Only reads cost time here, 1 ms each, so a
    // per-frame charge would take a second over 1,000 frames.
    sim::MemoryPerfModel model;
    model.read_latency_ns = 1'000'000;
    sim::NvmDevice nvm(model);
    LogSegment log(&nvm);
    const int n = 1000;
    for (int i = 0; i < n; i++)
        ASSERT_TRUE(log.append(Slice("frame-" + std::to_string(i))).isOk());
    const uint64_t read_before = nvm.meters().bytes_read;
    const uint64_t t0 = nowNanos();
    LogReader reader(&log);
    std::string r;
    int frames = 0;
    while (reader.readRecord(&r))
        frames++;
    const uint64_t elapsed = nowNanos() - t0;
    EXPECT_EQ(frames, n);
    EXPECT_EQ(nvm.meters().bytes_read - read_before, log.sizeBytes());
    EXPECT_LT(elapsed, 250'000'000u);
}

TEST(WalTest, WritesAreChargedAndPersisted)
{
    sim::NvmDevice nvm;
    LogSegment log(&nvm);
    log.append(Slice("0123456789"));
    EXPECT_EQ(nvm.meters().bytes_written, 18u);  // 8B frame + payload
    EXPECT_EQ(nvm.meters().persist_ops, 1u);
    EXPECT_EQ(log.sizeBytes(), 18u);
}

TEST(WalTest, RegistryOpenFindRemove)
{
    sim::NvmDevice nvm;
    WalRegistry registry;
    auto a = registry.open("wal-1", &nvm);
    auto b = registry.open("wal-1", &nvm);
    EXPECT_EQ(a.get(), b.get());  // same segment
    EXPECT_NE(registry.find("wal-1"), nullptr);
    EXPECT_EQ(registry.find("wal-2"), nullptr);
    EXPECT_EQ(registry.list().size(), 1u);
    registry.remove("wal-1");
    EXPECT_EQ(registry.find("wal-1"), nullptr);
}

TEST(WalTest, SegmentSurvivesRegistryHolderViaSharedPtr)
{
    sim::NvmDevice nvm;
    std::shared_ptr<LogSegment> seg;
    {
        WalRegistry registry;
        seg = registry.open("w", &nvm);
        seg->append(Slice("data"));
        registry.remove("w");
    }
    LogReader reader(seg.get());
    std::string r;
    ASSERT_TRUE(reader.readRecord(&r));
    EXPECT_EQ(r, "data");
}

TEST(WalTest, FreesNvmOnDestruction)
{
    sim::NvmDevice nvm;
    {
        LogSegment log(&nvm);
        log.append(Slice("x"));
        EXPECT_GT(nvm.meters().bytes_allocated, 0u);
    }
    EXPECT_EQ(nvm.meters().bytes_allocated, 0u);
}

} // namespace
} // namespace mio::wal
