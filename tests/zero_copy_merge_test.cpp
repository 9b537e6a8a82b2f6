/** @file Tests for zero-copy compaction (paper Sec. 4.3) incl. the
 *  interrupted-merge recovery protocol (Sec. 4.7). */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "lsm/memtable.h"
#include "miodb/one_piece_flush.h"
#include "miodb/zero_copy_merge.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

/** (key, seq, type, value) of one entry. */
using Entry = std::tuple<std::string, uint64_t, EntryType, std::string>;

/** Flush @p entries into a PMTable. */
std::shared_ptr<PMTable>
makeTable(sim::NvmDevice *nvm, StatsCounters *stats,
          const std::vector<Entry> &entries, uint64_t table_id)
{
    size_t bytes = 1 << 19;
    for (const auto &[k, seq, type, v] : entries)
        bytes += k.size() + v.size() + 128;
    lsm::MemTable mem(bytes, table_id * 13 + 1);
    for (const auto &[k, seq, type, v] : entries)
        EXPECT_TRUE(mem.add(Slice(k), seq, type, Slice(v)));
    return onePieceFlush(&mem, nvm, stats, 16, table_id);
}

/** Flush a key->(value, seq) map into a PMTable. */
std::shared_ptr<PMTable>
makeTable(sim::NvmDevice *nvm, StatsCounters *stats,
          const std::map<std::string, std::pair<std::string, uint64_t>>
              &entries,
          uint64_t table_id)
{
    std::vector<Entry> list;
    for (const auto &[k, vs] : entries)
        list.emplace_back(k, vs.second, EntryType::kValue, vs.first);
    return makeTable(nvm, stats, list, table_id);
}

/** Every entry of @p list in internal order. */
std::vector<Entry>
entriesOf(const SkipList &list)
{
    std::vector<Entry> out;
    SkipList::Iterator it(&list);
    for (it.seekToFirst(); it.valid(); it.next()) {
        out.emplace_back(it.key().toString(), it.seq(), it.entryType(),
                         it.value().toString());
    }
    return out;
}

/**
 * @p n old entries and @p n interleaved newer ones: the newtable
 * overwrites every third old key (every seventh with a tombstone),
 * adds keys between them, and holds a second, newer version of every
 * fifth of its keys.
 */
std::pair<std::vector<Entry>, std::vector<Entry>>
interleavedInputs(int n)
{
    std::vector<Entry> older, newer;
    for (int i = 0; i < n; i++) {
        older.emplace_back(makeKey(2 * i), 1 + i, EntryType::kValue,
                           "old" + std::to_string(i));
        const int key = i % 3 == 0 ? 2 * i : 2 * i + 1;
        const EntryType type =
            i % 7 == 0 ? EntryType::kDeletion : EntryType::kValue;
        newer.emplace_back(makeKey(key), 1 + n + i, type,
                           type == EntryType::kDeletion
                               ? std::string()
                               : "new" + std::to_string(i));
        if (i % 5 == 0) {
            newer.emplace_back(makeKey(key), 1 + 2 * n + i,
                               EntryType::kValue,
                               "newer" + std::to_string(i));
        }
    }
    return {older, newer};
}

TEST(ZeroCopyMergeTest, DisjointTablesConcatenate)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = makeTable(&nvm, &stats,
                         {{"a", {"1", 1}}, {"b", {"2", 2}}}, 1);
    op->newt = makeTable(&nvm, &stats,
                         {{"x", {"3", 10}}, {"y", {"4", 11}}}, 2);

    ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
    EXPECT_TRUE(op->done.load());
    EXPECT_TRUE(op->newt->list().empty());
    EXPECT_EQ(op->oldt->entryCount(), 4u);
    EXPECT_EQ(stats.zero_copy_merges.load(), 1u);

    std::string v;
    EntryType t;
    for (const auto &[k, expect] :
         std::map<std::string, std::string>{
             {"a", "1"}, {"b", "2"}, {"x", "3"}, {"y", "4"}}) {
        ASSERT_TRUE(op->oldt->list().get(Slice(k), &v, &t)) << k;
        EXPECT_EQ(v, expect);
    }
    // Result covers both key ranges and both blooms.
    EXPECT_TRUE(op->oldt->coversKey(Slice("a")));
    EXPECT_TRUE(op->oldt->coversKey(Slice("y")));
    EXPECT_TRUE(op->oldt->bloom().mayContain(Slice("y")));
}

TEST(ZeroCopyMergeTest, DuplicateKeysKeepNewestOnly)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = makeTable(&nvm, &stats,
                         {{"d", {"old", 3}}, {"k", {"old", 4}}}, 1);
    op->newt = makeTable(&nvm, &stats,
                         {{"d", {"new", 10}}, {"z", {"zv", 11}}}, 2);

    ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
    std::string v;
    EntryType t;
    uint64_t seq;
    ASSERT_TRUE(op->oldt->list().get(Slice("d"), &v, &t, &seq));
    EXPECT_EQ(v, "new");
    EXPECT_EQ(seq, 10u);
    // The old duplicate is unlinked: entry count is 3, and iteration
    // sees exactly one "d".
    EXPECT_EQ(op->oldt->entryCount(), 3u);
    SkipList::Iterator it(&op->oldt->list());
    int d_count = 0;
    for (it.seekToFirst(); it.valid(); it.next()) {
        if (it.key() == Slice("d"))
            d_count++;
    }
    EXPECT_EQ(d_count, 1);
}

TEST(ZeroCopyMergeTest, DuplicatesWithinNewtableDropped)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = makeTable(&nvm, &stats, {{"a", {"av", 1}}}, 1);
    // Two versions of "m" inside the newtable.
    lsm::MemTable mem(1 << 19, 7);
    mem.add(Slice("m"), 5, EntryType::kValue, Slice("m5"));
    mem.add(Slice("m"), 9, EntryType::kValue, Slice("m9"));
    op->newt = onePieceFlush(&mem, &nvm, &stats, 16, 2);

    ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
    std::string v;
    EntryType t;
    uint64_t seq;
    ASSERT_TRUE(op->oldt->list().get(Slice("m"), &v, &t, &seq));
    EXPECT_EQ(v, "m9");
    EXPECT_EQ(op->oldt->entryCount(), 2u);
}

TEST(ZeroCopyMergeTest, MovesNoKVBytes)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    std::map<std::string, std::pair<std::string, uint64_t>> a, b;
    for (int i = 0; i < 200; i++)
        a[makeKey(i)] = {"v" + std::to_string(i),
                         static_cast<uint64_t>(i + 1)};
    for (int i = 200; i < 400; i++)
        b[makeKey(i)] = {"v" + std::to_string(i),
                         static_cast<uint64_t>(i + 1)};
    op->oldt = makeTable(&nvm, &stats, a, 1);
    op->newt = makeTable(&nvm, &stats, b, 2);

    uint64_t before = nvm.meters().bytes_written;
    ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
    uint64_t merged_bytes = nvm.meters().bytes_written - before;
    // Only pointer updates: a few dozen bytes per node, far below the
    // KV payload volume (which exceeds 200 * value bytes).
    EXPECT_LT(merged_bytes, 400u * 200);
    EXPECT_GT(merged_bytes, 0u);

    // All data present.
    std::string v;
    EntryType t;
    for (int i = 0; i < 400; i++) {
        ASSERT_TRUE(op->oldt->list().get(Slice(makeKey(i)), &v, &t))
            << i;
        EXPECT_EQ(v, "v" + std::to_string(i));
    }
    EXPECT_EQ(op->oldt->entryCount(), 400u);
}

TEST(ZeroCopyMergeTest, TombstonesPropagate)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = makeTable(&nvm, &stats, {{"k", {"live", 1}}}, 1);
    lsm::MemTable mem(1 << 16, 3);
    mem.add(Slice("k"), 9, EntryType::kDeletion, Slice());
    op->newt = onePieceFlush(&mem, &nvm, &stats, 16, 2);

    ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
    std::string v;
    EntryType t;
    ASSERT_TRUE(op->oldt->list().get(Slice("k"), &v, &t));
    EXPECT_EQ(t, EntryType::kDeletion);
    EXPECT_EQ(op->oldt->entryCount(), 1u);
}

TEST(ZeroCopyMergeTest, MergeAwareGetDuringPausedMerge)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = makeTable(&nvm, &stats, {{"b", {"bv", 1}}}, 1);
    op->newt = makeTable(&nvm, &stats,
                         {{"a", {"av", 10}}, {"c", {"cv", 11}}}, 2);

    // Pause after the first node has been moved; the second node may
    // sit in the insertion mark.
    for (uint64_t pause_at = 0; pause_at <= 2; pause_at++) {
        auto paused_op = std::make_shared<MergeOp>();
        paused_op->oldt = makeTable(&nvm, &stats, {{"b", {"bv", 1}}}, 1);
        paused_op->newt = makeTable(
            &nvm, &stats, {{"a", {"av", 10}}, {"c", {"cv", 11}}}, 2);
        bool complete = zeroCopyMerge(
            paused_op.get(), &nvm, &stats,
            [&](uint64_t moved) { return moved < pause_at; });
        EXPECT_EQ(complete, pause_at >= 2);

        // Every key must be visible through the three-step protocol
        // regardless of where the merge paused.
        std::string v;
        EntryType t;
        uint64_t seq;
        for (const auto &[k, expect] :
             std::map<std::string, std::string>{
                 {"a", "av"}, {"b", "bv"}, {"c", "cv"}}) {
            ASSERT_TRUE(mergeAwareGet(paused_op.get(), Slice(k), &v,
                                      &t, &seq))
                << "pause=" << pause_at << " key=" << k;
            EXPECT_EQ(v, expect);
        }
    }
}

TEST(ZeroCopyMergeTest, ConcurrentReadersNeverSeeAnOlderVersion)
{
    // Every key has an old version in the oldtable and a new one in
    // the newtable. Moving a node relinks it into the oldtable, which
    // rewrites its forward pointers; a reader whose newtable descent
    // stood on it must not continue in the oldtable and answer "old"
    // while the key's new version has not moved yet.
    constexpr int kKeys = 2000;
    int stale = 0;
    for (int round = 0; round < 100 && stale == 0; round++) {
        sim::NvmDevice nvm;
        StatsCounters stats;
        std::map<std::string, std::pair<std::string, uint64_t>> older;
        std::map<std::string, std::pair<std::string, uint64_t>> newer;
        for (int i = 0; i < kKeys; i++) {
            older[makeKey(i)] = {"old", 1 + i};
            newer[makeKey(i)] = {"new", 1 + kKeys + i};
        }
        auto op = std::make_shared<MergeOp>();
        op->oldt = makeTable(&nvm, &stats, older, 1);
        op->newt = makeTable(&nvm, &stats, newer, 2);
        std::atomic<bool> merged{false};
        std::atomic<int> bad{0};
        std::vector<std::thread> readers;
        // More readers than cores: a reader preempted mid-descent is
        // what widens the window the relink must not slip into.
        for (int r = 0; r < 8; r++) {
            readers.emplace_back([&, r] {
                Random rnd(round * 11 + r + 1);
                std::string v;
                EntryType t;
                while (!merged.load()) {
                    std::string key = makeKey(rnd.uniform(kKeys));
                    if (!mergeAwareGet(op.get(), Slice(key), &v, &t, nullptr,
                                       false, nullptr) ||
                        v != "new") {
                        bad.fetch_add(1);
                    }
                }
            });
        }
        ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
        merged.store(true);
        for (auto &t : readers)
            t.join();
        stale += bad.load();
    }
    EXPECT_EQ(stale, 0);
}

TEST(ZeroCopyMergeTest, ResumeAfterEveryPausePoint)
{
    // Simulated crash at every step k, then recovery completes the
    // merge and the result must equal the uninterrupted merge: the
    // same (key, seq, type) sequence and entry count. The resumed run
    // starts its descents from the head; the uninterrupted one keeps
    // one finger throughout.
    const std::vector<Entry> small_old = {
        {"b", 1, EntryType::kValue, "b-old"},
        {"d", 2, EntryType::kValue, "d-old"},
        {"f", 3, EntryType::kValue, "f-old"}};
    const std::vector<Entry> small_new = {
        {"a", 10, EntryType::kValue, "a-new"},
        {"d", 11, EntryType::kValue, "d-new"},
        {"g", 12, EntryType::kValue, "g-new"}};
    const auto [big_old, big_new] = interleavedInputs(120);
    struct Case {
        const std::vector<Entry> *older;
        const std::vector<Entry> *newer;
        uint64_t keep_seq;
    };
    const Case cases[] = {{&small_old, &small_new, kMaxSequence},
                          {&big_old, &big_new, kMaxSequence},
                          {&big_old, &big_new, 120 + 60}};
    for (const Case &c : cases) {
        SCOPED_TRACE(c.newer->size());
        SCOPED_TRACE(c.keep_seq);
        auto merge = [&](uint64_t pause_at) {
            sim::NvmDevice nvm;
            StatsCounters stats;
            auto op = std::make_shared<MergeOp>();
            op->oldt = makeTable(&nvm, &stats, *c.older, 1);
            op->newt = makeTable(&nvm, &stats, *c.newer, 2);
            bool complete = zeroCopyMerge(
                op.get(), &nvm, &stats,
                [&](uint64_t moved) { return moved < pause_at; },
                c.keep_seq);
            if (!complete) {
                // Crash-recovery path: resume from the persistent mark.
                EXPECT_TRUE(resumeZeroCopyMerge(op.get(), &nvm, &stats,
                                                nullptr, c.keep_seq));
            }
            EXPECT_TRUE(op->done.load()) << "pause=" << pause_at;
            std::vector<Entry> got = entriesOf(op->oldt->list());
            EXPECT_EQ(op->oldt->entryCount(), got.size())
                << "pause=" << pause_at;
            for (auto &e : got)
                std::get<3>(e).clear();  // compare (key, seq, type)
            return got;
        };
        const std::vector<Entry> want = merge(~0ull);
        ASSERT_FALSE(want.empty());
        for (uint64_t k = 0; k <= c.newer->size(); k++)
            EXPECT_EQ(merge(k), want) << "pause=" << k;
    }

    // The small case, spelled out.
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = makeTable(&nvm, &stats, small_old, 1);
    op->newt = makeTable(&nvm, &stats, small_new, 2);
    ASSERT_FALSE(zeroCopyMerge(op.get(), &nvm, &stats,
                               [](uint64_t moved) { return moved < 1; }));
    ASSERT_TRUE(resumeZeroCopyMerge(op.get(), &nvm, &stats));
    std::map<std::string, std::string> expect = {
        {"a", "a-new"}, {"b", "b-old"}, {"d", "d-new"},
        {"f", "f-old"}, {"g", "g-new"}};
    std::string v;
    EntryType t;
    for (const auto &[key, val] : expect) {
        ASSERT_TRUE(op->oldt->list().get(Slice(key), &v, &t)) << key;
        EXPECT_EQ(v, val) << key;
    }
    EXPECT_EQ(op->oldt->entryCount(), expect.size());
}

TEST(ZeroCopyMergeTest, ReadersSurviveCrashMidMerge)
{
    // Readers run merge-aware gets continuously while the merge
    // thread crashes at each zero-copy failpoint (node detached into
    // the mark / node relinked but mark not yet cleared). No key may
    // ever disappear from a reader's view, and resuming the merge
    // under the same read load must converge to the clean result.
    const std::map<std::string, std::string> expect = {
        {"a", "a-new"}, {"b", "b-old"}, {"d", "d-new"},
        {"f", "f-old"}, {"g", "g-new"}};
    for (const char *point : {"zcm.detached", "zcm.relinked"}) {
        SCOPED_TRACE(point);
        auto &fp = sim::FailpointRegistry::instance();
        fp.disarmAll();
        sim::NvmDevice nvm;
        StatsCounters stats;
        auto op = std::make_shared<MergeOp>();
        op->oldt = makeTable(&nvm, &stats,
                             {{"b", {"b-old", 1}},
                              {"d", {"d-old", 2}},
                              {"f", {"f-old", 3}}},
                             1);
        op->newt = makeTable(&nvm, &stats,
                             {{"a", {"a-new", 10}},
                              {"d", {"d-new", 11}},
                              {"g", {"g-new", 12}}},
                             2);

        std::atomic<bool> stop{false};
        std::vector<std::thread> readers;
        for (int r = 0; r < 3; r++) {
            readers.emplace_back([&] {
                while (!stop.load()) {
                    for (const auto &[k, val] : expect) {
                        std::string v;
                        EntryType t;
                        uint64_t seq;
                        EXPECT_TRUE(mergeAwareGet(op.get(), Slice(k),
                                                  &v, &t, &seq))
                            << "key " << k << " vanished mid-merge";
                        EXPECT_EQ(v, val) << k;
                    }
                }
            });
        }

        fp.armCrash(point, 1);
        std::atomic<bool> crashed{false};
        std::thread merger([&] {
            try {
                zeroCopyMerge(op.get(), &nvm, &stats);
            } catch (const sim::SimCrash &) {
                crashed.store(true);
            }
        });
        merger.join();
        EXPECT_TRUE(crashed.load());
        fp.disarmAll();

        // Recovery resumes from the persistent mark while readers are
        // still hammering the tables.
        ASSERT_TRUE(resumeZeroCopyMerge(op.get(), &nvm, &stats));
        stop.store(true);
        for (auto &t : readers)
            t.join();

        EXPECT_TRUE(op->done.load());
        std::string v;
        EntryType t;
        for (const auto &[key, val] : expect) {
            ASSERT_TRUE(op->oldt->list().get(Slice(key), &v, &t))
                << key;
            EXPECT_EQ(v, val) << key;
        }
        EXPECT_EQ(op->oldt->entryCount(), expect.size());
    }
}

TEST(CopyingMergeTest, SameResultFullWriteCost)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto newt = makeTable(&nvm, &stats,
                          {{"d", {"new", 10}}, {"x", {"xv", 11}}}, 2);
    auto oldt = makeTable(&nvm, &stats,
                          {{"a", {"av", 1}}, {"d", {"old", 2}}}, 1);

    uint64_t before = nvm.meters().bytes_written;
    auto result = copyingMerge(newt, oldt, &nvm, &stats, 3);
    uint64_t cost = nvm.meters().bytes_written - before;

    EXPECT_EQ(result->entryCount(), 3u);
    std::string v;
    EntryType t;
    ASSERT_TRUE(result->list().get(Slice("d"), &v, &t));
    EXPECT_EQ(v, "new");
    ASSERT_TRUE(result->list().get(Slice("a"), &v, &t));
    ASSERT_TRUE(result->list().get(Slice("x"), &v, &t));
    // Copying merge rewrote whole nodes, not just pointers.
    EXPECT_GT(cost, 3u * 40);
}

TEST(ZeroCopyMergeTest, OrderedNewtableChargesTheNodesItTouches)
{
    // The newtable drains in key order, so each insert resumes from
    // the previous one's splice: merging N nodes beside M costs a few
    // node reads per node, not a log2(M)-deep descent each.
    constexpr int kN = 20000;
    constexpr int kM = 20000;
    for (bool new_above : {true, false}) {
        SCOPED_TRACE(new_above);
        sim::NvmDevice nvm;
        StatsCounters stats;
        std::vector<Entry> older, newer;
        const int old_base = new_above ? 0 : kN;
        const int new_base = new_above ? kM : 0;
        for (int i = 0; i < kM; i++) {
            older.emplace_back(makeKey(old_base + i), 1 + i,
                               EntryType::kValue, "o");
        }
        for (int i = 0; i < kN; i++) {
            newer.emplace_back(makeKey(new_base + i), 1 + kM + i,
                               EntryType::kValue, "n");
        }
        auto op = std::make_shared<MergeOp>();
        op->oldt = makeTable(&nvm, &stats, older, 1);
        op->newt = makeTable(&nvm, &stats, newer, 2);

        const uint64_t before = nvm.meters().bytes_read;
        ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
        const uint64_t node_reads = (nvm.meters().bytes_read - before) / 64;
        EXPECT_LE(node_reads, 8u * kN);
        EXPECT_EQ(op->oldt->entryCount(), static_cast<uint64_t>(kN + kM));
    }
}

TEST(ZeroCopyMergeTest, InterleavedMergeMatchesCopyingMerge)
{
    const auto [older, newer] = interleavedInputs(3000);
    for (uint64_t keep_seq : {kMaxSequence, uint64_t{3000 + 1500}}) {
        SCOPED_TRACE(keep_seq);
        sim::NvmDevice nvm;
        StatsCounters stats;
        auto copied = copyingMerge(makeTable(&nvm, &stats, newer, 2),
                                   makeTable(&nvm, &stats, older, 1),
                                   &nvm, &stats, 3, keep_seq);
        ASSERT_NE(copied, nullptr);

        auto op = std::make_shared<MergeOp>();
        op->oldt = makeTable(&nvm, &stats, older, 1);
        op->newt = makeTable(&nvm, &stats, newer, 2);
        ASSERT_TRUE(
            zeroCopyMerge(op.get(), &nvm, &stats, nullptr, keep_seq));
        const std::vector<Entry> got = entriesOf(op->oldt->list());
        EXPECT_EQ(got, entriesOf(copied->list()));
        EXPECT_EQ(op->oldt->entryCount(), got.size());
    }
}

} // namespace
} // namespace mio::miodb
