/** @file Crash-consistency tests: WAL replay across simulated power
 *  failures (paper Sec. 4.7). */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "miodb/miodb.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

MioOptions
smallOptions()
{
    MioOptions o;
    o.memtable_size = 32 << 10;
    o.elastic_levels = 3;
    return o;
}

TEST(MioDBRecoveryTest, UnflushedWritesReplayFromWal)
{
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    {
        MioDB db(smallOptions(), &nvm, nullptr, &registry);
        state = db.nvmState();
        for (int i = 0; i < 50; i++)
            db.put(Slice(makeKey(i)), Slice("v" + std::to_string(i)));
        db.simulateCrash();
        // Destructor now skips the clean-shutdown flush: durability
        // comes from the WAL plus the surviving NVM image.
    }
    ASSERT_FALSE(registry.list().empty());

    MioDB db2(smallOptions(), &nvm, nullptr, &registry, state);
    std::string v;
    for (int i = 0; i < 50; i++) {
        ASSERT_TRUE(db2.get(Slice(makeKey(i)), &v).isOk()) << i;
        EXPECT_EQ(v, "v" + std::to_string(i));
    }
}

TEST(MioDBRecoveryTest, DeletesReplayToo)
{
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    {
        MioDB db(smallOptions(), &nvm, nullptr, &registry);
        state = db.nvmState();
        db.put(Slice("keep"), Slice("kv"));
        db.put(Slice("drop"), Slice("dv"));
        db.remove(Slice("drop"));
        db.simulateCrash();
    }
    MioDB db2(smallOptions(), &nvm, nullptr, &registry, state);
    std::string v;
    ASSERT_TRUE(db2.get(Slice("keep"), &v).isOk());
    EXPECT_TRUE(db2.get(Slice("drop"), &v).isNotFound());
}

TEST(MioDBRecoveryTest, SequenceNumbersResumeAfterReplay)
{
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    uint64_t seq_before;
    std::shared_ptr<NvmState> state;
    {
        MioDB db(smallOptions(), &nvm, nullptr, &registry);
        state = db.nvmState();
        db.put(Slice("a"), Slice("1"));
        db.put(Slice("a"), Slice("2"));
        seq_before = db.currentSequence();
        db.simulateCrash();
    }
    MioDB db2(smallOptions(), &nvm, nullptr, &registry, state);
    EXPECT_GE(db2.currentSequence(), seq_before);
    // New writes must shadow replayed ones.
    db2.put(Slice("a"), Slice("3"));
    std::string v;
    ASSERT_TRUE(db2.get(Slice("a"), &v).isOk());
    EXPECT_EQ(v, "3");
}

TEST(MioDBRecoveryTest, ReopenAllocatesPastFlushedSequences)
{
    // A clean close flushes everything and removes every WAL segment,
    // so the reopen replays nothing. Sequences must still resume past
    // the flushed versions, or overwrites written after the reopen
    // lose to the older versions once merges order them by sequence.
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    MioOptions o = smallOptions();
    o.memtable_size = 8 << 10;
    o.elastic_levels = 2;
    o.deterministic_background = true;
    std::shared_ptr<NvmState> state;
    uint64_t seq_before;
    {
        MioDB db(o, &nvm, nullptr, &registry);
        state = db.nvmState();
        for (int round = 0; round < 3; round++) {
            for (int i = 0; i < 200; i++)
                db.put(Slice(makeKey(i)), Slice("old"));
        }
        db.waitIdle();
        seq_before = db.currentSequence();
    }
    ASSERT_TRUE(registry.list().empty());
    MioDB db(o, &nvm, nullptr, &registry, state);
    EXPECT_GE(db.currentSequence(), seq_before);
    for (int i = 0; i < 200; i++)
        db.put(Slice(makeKey(i)), Slice("new"));
    // Filler pushes the overwrites through the merges and migration.
    for (int i = 0; i < 2000; i++)
        db.put(Slice(makeKey(100000 + i)), Slice("filler"));
    db.waitIdle();
    std::string v;
    for (int i = 0; i < 200; i++) {
        ASSERT_TRUE(db.get(Slice(makeKey(i)), &v).isOk()) << i;
        EXPECT_EQ(v, "new") << i;
    }
}

TEST(MioDBRecoveryTest, ReopenWithAnotherMemtableSizeKeepsEveryKey)
{
    // A PMTable's filter is sized from its MemTable, so after a reopen
    // with a larger memtable_size a merge meets filters of two
    // geometries. OR-ing them word by word would keep only the smaller
    // filter's bits: gets of keys from the larger table answer
    // NotFound. Filters are merged, and probed, in both orders here.
    for (bool grow : {true, false}) {
        SCOPED_TRACE(grow ? "8 KiB -> 64 KiB" : "64 KiB -> 8 KiB");
        sim::NvmDevice nvm;
        wal::WalRegistry registry;
        MioOptions o = smallOptions();
        o.elastic_levels = 5;  // merge results stay in the buffer
        o.deterministic_background = true;
        o.memtable_size = grow ? 8 << 10 : 64 << 10;
        std::shared_ptr<NvmState> state;
        {
            MioDB db(o, &nvm, nullptr, &registry);
            state = db.nvmState();
            for (int i = 0; i < 50; i++)
                ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("first")).isOk());
        }
        o.memtable_size = grow ? 64 << 10 : 8 << 10;
        MioDB db(o, &nvm, nullptr, &registry, state);
        for (int i = 50; i < 3000; i++)
            ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("second")).isOk());
        db.waitIdle();
        ASSERT_GT(db.stats().zero_copy_merges.load(), 0u);
        std::string v;
        for (int i = 0; i < 3000; i++) {
            ASSERT_TRUE(db.get(Slice(makeKey(i)), &v).isOk()) << i;
            EXPECT_EQ(v, i < 50 ? "first" : "second") << i;
        }
    }
}

TEST(MioDBRecoveryTest, ReplaySkipsRecordsOfFlushedTables)
{
    // WAL recycle jobs run after their flush, in any order across
    // workers, and a power failure drops the ones still queued. Model
    // the worst case: both segments' tables are flushed, the NEWER
    // segment is recycled, the older one survives. Replaying the
    // survivor would put k's older version above the flushed newer
    // one in the read order.
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    MioOptions o = smallOptions();
    o.memtable_size = 8 << 10;
    o.auto_compaction = false;
    o.deterministic_background = true;
    std::shared_ptr<NvmState> state;
    {
        MioDB db(o, &nvm, nullptr, &registry);
        state = db.nvmState();
        int filler = 0;
        auto rotate = [&] {
            const size_t segments = registry.list().size();
            while (registry.list().size() == segments) {
                db.put(Slice(makeKey(100000 + filler++)),
                       Slice("filler"));
            }
        };
        db.put(Slice("k"), Slice("v1"));
        rotate();
        db.put(Slice("k"), Slice("v2"));
        rotate();
        // Run the two flushes (deterministic mode: inline, in priority
        // order, so the lower-priority WAL recycles stay queued).
        db.scheduler().waitUntil(
            [&] { return db.levels().level(0).size() == 2; });
        ASSERT_EQ(registry.list().size(), 3u);
        db.simulateCrash();
    }
    auto names = registry.list();
    std::sort(names.begin(), names.end());
    registry.remove(names[1]);  // the newer flushed segment

    MioDB db(o, &nvm, nullptr, &registry, state);
    std::string v;
    ASSERT_TRUE(db.get(Slice("k"), &v).isOk());
    EXPECT_EQ(v, "v2");
}

TEST(MioDBRecoveryTest, MultipleMemtablesWorthOfWal)
{
    // Crash with several WAL segments alive (active + immutables not
    // yet flushed): all replay.
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    const int n = 800;
    std::shared_ptr<NvmState> state;
    {
        MioOptions o = smallOptions();
        o.max_immutable_memtables = 8;
        MioDB db(o, &nvm, nullptr, &registry);
        state = db.nvmState();
        for (int i = 0; i < n; i++)
            db.put(Slice(makeKey(i)), Slice("wal-" + std::to_string(i)));
        db.simulateCrash();
    }
    MioDB db2(smallOptions(), &nvm, nullptr, &registry, state);
    std::string v;
    int found = 0;
    for (int i = 0; i < n; i++) {
        if (db2.get(Slice(makeKey(i)), &v).isOk()) {
            EXPECT_EQ(v, "wal-" + std::to_string(i));
            found++;
        }
    }
    // Flushed PMTables survive in the adopted NVM image; everything
    // still buffered in DRAM replays from its WAL segment: no loss.
    EXPECT_EQ(found, n);
}

TEST(MioDBRecoveryTest, CleanShutdownLeavesNoWal)
{
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    {
        MioDB db(smallOptions(), &nvm, nullptr, &registry);
        db.put(Slice("x"), Slice("y"));
        // Clean destructor: flushes and truncates the WAL.
    }
    EXPECT_TRUE(registry.list().empty());
}

TEST(MioDBRecoveryTest, RecoveryIsIdempotentAcrossSecondCrash)
{
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    {
        MioDB db(smallOptions(), &nvm, nullptr, &registry);
        state = db.nvmState();
        for (int i = 0; i < 30; i++)
            db.put(Slice(makeKey(i)), Slice("first"));
        db.simulateCrash();
    }
    {
        // Recover, write a bit more, crash again before flushing.
        MioDB db(smallOptions(), &nvm, nullptr, &registry, state);
        for (int i = 30; i < 60; i++)
            db.put(Slice(makeKey(i)), Slice("second"));
        db.simulateCrash();
    }
    MioDB db3(smallOptions(), &nvm, nullptr, &registry, state);
    std::string v;
    for (int i = 0; i < 60; i++) {
        ASSERT_TRUE(db3.get(Slice(makeKey(i)), &v).isOk()) << i;
        EXPECT_EQ(v, i < 30 ? "first" : "second");
    }
}

TEST(MioDBRecoveryTest, TornGroupRecordReplaysAllOrNothing)
{
    // A commit group is one combined WAL record; tearing any byte of
    // it must drop the WHOLE group at replay (no partially applied
    // group), while everything logged before the tear survives.
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    std::string wal_name;
    uint64_t tear_offset = 0;
    {
        MioDB db(smallOptions(), &nvm, nullptr, &registry);
        state = db.nvmState();
        for (int i = 0; i < 20; i++)
            db.put(Slice("before-" + makeKey(i)), Slice("bv"));

        // The group record under test: a batch commits as exactly one
        // record at the current WAL tail (same encoding a
        // multi-writer group uses).
        auto names = registry.list();
        ASSERT_EQ(names.size(), 1u);
        wal_name = names[0];
        tear_offset = registry.find(wal_name)->sizeBytes();

        WriteBatch group;
        for (int i = 0; i < 10; i++)
            group.put(Slice("group-" + makeKey(i)), Slice("gv"));
        ASSERT_TRUE(db.write(group).isOk());
        db.simulateCrash();
    }
    // Tear one payload byte inside the group record (past the 8-byte
    // frame header, so the CRC check, not the framing, catches it).
    auto segment = registry.find(wal_name);
    ASSERT_NE(segment, nullptr);
    ASSERT_GT(segment->sizeBytes(), tear_offset + 8);
    segment->corruptByteForTesting(tear_offset + 8 + 3);

    MioDB db2(smallOptions(), &nvm, nullptr, &registry, state);
    std::string v;
    for (int i = 0; i < 20; i++) {
        ASSERT_TRUE(
            db2.get(Slice("before-" + makeKey(i)), &v).isOk())
            << i;
        EXPECT_EQ(v, "bv");
    }
    for (int i = 0; i < 10; i++) {
        EXPECT_TRUE(
            db2.get(Slice("group-" + makeKey(i)), &v).isNotFound())
            << "torn group leaked key " << i;
    }
}

TEST(MioDBRecoveryTest, ConcurrentGroupCommitsSurviveCrash)
{
    // Multi-writer traffic commits through combined group records;
    // after a crash every acknowledged write must replay.
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    constexpr int kWriters = 4;
    constexpr int kOpsPerWriter = 300;
    {
        MioOptions o = smallOptions();
        o.max_immutable_memtables = 8;
        MioDB db(o, &nvm, nullptr, &registry);
        state = db.nvmState();
        std::vector<std::thread> writers;
        for (int w = 0; w < kWriters; w++) {
            writers.emplace_back([&, w] {
                for (int i = 0; i < kOpsPerWriter; i++) {
                    std::string k = makeKey(w * 100000 + i);
                    std::string v = "w" + std::to_string(w) + "-" +
                                    std::to_string(i);
                    ASSERT_TRUE(db.put(Slice(k), Slice(v)).isOk());
                }
            });
        }
        for (auto &t : writers)
            t.join();
        db.simulateCrash();
    }
    MioDB db2(smallOptions(), &nvm, nullptr, &registry, state);
    std::string v;
    for (int w = 0; w < kWriters; w++) {
        for (int i = 0; i < kOpsPerWriter; i++) {
            ASSERT_TRUE(
                db2.get(Slice(makeKey(w * 100000 + i)), &v).isOk())
                << "w" << w << " i" << i;
            EXPECT_EQ(v,
                      "w" + std::to_string(w) + "-" +
                          std::to_string(i));
        }
    }
}

} // namespace
} // namespace mio::miodb
