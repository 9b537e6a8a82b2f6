/** @file Regression test: a zero-copy merge of a newtable holding
 *  several versions of one key must never expose a stale version to
 *  concurrent readers at ANY pause point (older duplicates are
 *  unlinked in the same step as the newest version, per Fig. 5(c)). */
#include <gtest/gtest.h>

#include "lsm/memtable.h"
#include "miodb/one_piece_flush.h"
#include "miodb/zero_copy_merge.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

TEST(MergeStalenessTest, NoStaleReadsAtAnyPausePoint)
{
    // newtable: three versions of "k" (seqs 30 > 20 > 10) plus
    // neighbours; oldtable: an even older "k" (seq 1). At every pause
    // point the protocol must answer "k" with seq 30.
    for (uint64_t pause_at = 0; pause_at < 8; pause_at++) {
        sim::NvmDevice nvm;
        StatsCounters stats;

        lsm::MemTable old_mem(1 << 16, 1);
        old_mem.add(Slice("a"), 2, EntryType::kValue, Slice("a-old"));
        old_mem.add(Slice("k"), 1, EntryType::kValue, Slice("k-v1"));
        lsm::MemTable new_mem(1 << 16, 2);
        new_mem.add(Slice("b"), 11, EntryType::kValue, Slice("b-new"));
        new_mem.add(Slice("k"), 10, EntryType::kValue, Slice("k-v10"));
        new_mem.add(Slice("k"), 20, EntryType::kValue, Slice("k-v20"));
        new_mem.add(Slice("k"), 30, EntryType::kValue, Slice("k-v30"));
        new_mem.add(Slice("z"), 12, EntryType::kValue, Slice("z-new"));

        auto op = std::make_shared<MergeOp>();
        op->oldt = onePieceFlush(&old_mem, &nvm, &stats, 16, 1);
        op->newt = onePieceFlush(&new_mem, &nvm, &stats, 16, 2);

        bool complete = zeroCopyMerge(
            op.get(), &nvm, &stats,
            [&](uint64_t moved) { return moved < pause_at; });

        std::string v;
        EntryType t;
        uint64_t seq;
        ASSERT_TRUE(mergeAwareGet(op.get(), Slice("k"), &v, &t, &seq))
            << "pause=" << pause_at;
        EXPECT_EQ(v, "k-v30") << "pause=" << pause_at;
        EXPECT_EQ(seq, 30u) << "pause=" << pause_at;

        if (!complete) {
            ASSERT_TRUE(resumeZeroCopyMerge(op.get(), &nvm, &stats));
        }
        ASSERT_TRUE(op->oldt->list().get(Slice("k"), &v, &t, &seq));
        EXPECT_EQ(seq, 30u);
        // Exactly one version of "k" remains.
        SkipList::Iterator it(&op->oldt->list());
        int k_count = 0;
        for (it.seekToFirst(); it.valid(); it.next()) {
            if (it.key() == Slice("k"))
                k_count++;
        }
        EXPECT_EQ(k_count, 1) << "pause=" << pause_at;
    }
}

TEST(MergeStalenessTest, SnapshotKeptVersionsNeverShadowTheNewest)
{
    // A pinned snapshot (keep_seq 0: every version stays) makes the
    // older versions of "k" travel through the insertion mark as steps
    // of their own. Once k@30 reached the oldtable, the newtable and
    // the mark still hold k@20 / k@10; the protocol must keep
    // answering k@30 at every pause point.
    for (uint64_t pause_at = 0; pause_at < 6; pause_at++) {
        sim::NvmDevice nvm;
        StatsCounters stats;
        lsm::MemTable old_mem(1 << 16, 1);
        old_mem.add(Slice("a"), 2, EntryType::kValue, Slice("a-old"));
        old_mem.add(Slice("k"), 1, EntryType::kValue, Slice("k-v1"));
        lsm::MemTable new_mem(1 << 16, 2);
        new_mem.add(Slice("k"), 10, EntryType::kValue, Slice("k-v10"));
        new_mem.add(Slice("k"), 20, EntryType::kValue, Slice("k-v20"));
        new_mem.add(Slice("k"), 30, EntryType::kValue, Slice("k-v30"));
        new_mem.add(Slice("z"), 12, EntryType::kValue, Slice("z-new"));

        auto op = std::make_shared<MergeOp>();
        op->oldt = onePieceFlush(&old_mem, &nvm, &stats, 16, 1);
        op->newt = onePieceFlush(&new_mem, &nvm, &stats, 16, 2);
        const bool complete = zeroCopyMerge(
            op.get(), &nvm, &stats,
            [&](uint64_t moved) { return moved < pause_at; },
            /*keep_seq=*/0);

        std::string v;
        EntryType t;
        uint64_t seq = 0;
        ASSERT_TRUE(mergeAwareGet(op.get(), Slice("k"), &v, &t, &seq))
            << "pause=" << pause_at;
        EXPECT_EQ(v, "k-v30") << "pause=" << pause_at;
        EXPECT_EQ(seq, 30u) << "pause=" << pause_at;
        if (!complete) {
            ASSERT_TRUE(resumeZeroCopyMerge(op.get(), &nvm, &stats,
                                            nullptr, /*keep_seq=*/0));
        }
    }
}

TEST(MergeStalenessTest, ConcurrentReaderNeverSeesOldVersion)
{
    // Hot key rewritten many times inside the newtable; a racing
    // reader stepping the merge one node at a time must always see
    // the newest version.
    sim::NvmDevice nvm;
    StatsCounters stats;

    lsm::MemTable old_mem(1 << 18, 1);
    old_mem.add(Slice("hot"), 5, EntryType::kValue, Slice("gen-0"));
    for (int i = 0; i < 50; i++)
        old_mem.add(Slice(makeKey(i)), 100 + i, EntryType::kValue,
                    Slice("filler"));
    lsm::MemTable new_mem(1 << 18, 2);
    for (int gen = 1; gen <= 20; gen++)
        new_mem.add(Slice("hot"), 1000 + gen, EntryType::kValue,
                    Slice("gen-" + std::to_string(gen)));
    for (int i = 50; i < 100; i++)
        new_mem.add(Slice(makeKey(i)), 100 + i, EntryType::kValue,
                    Slice("filler"));

    auto op = std::make_shared<MergeOp>();
    op->oldt = onePieceFlush(&old_mem, &nvm, &stats, 16, 1);
    op->newt = onePieceFlush(&new_mem, &nvm, &stats, 16, 2);

    std::string v;
    EntryType t;
    uint64_t seq;
    uint64_t checked = 0;
    zeroCopyMerge(op.get(), &nvm, &stats, [&](uint64_t moved) {
        // "Reader" interleaved at every merge step.
        (void)moved;
        EXPECT_TRUE(
            mergeAwareGet(op.get(), Slice("hot"), &v, &t, &seq));
        EXPECT_EQ(seq, 1020u) << "stale read mid-merge";
        checked++;
        return true;
    });
    EXPECT_GT(checked, 50u);
    ASSERT_TRUE(op->oldt->list().get(Slice("hot"), &v, &t, &seq));
    EXPECT_EQ(v, "gen-20");
}

} // namespace
} // namespace mio::miodb
