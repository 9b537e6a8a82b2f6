/** @file Tests for lazy-copy compaction and the data repositories. */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>

#include "lsm/memtable.h"
#include "miodb/lazy_copy_merge.h"
#include "miodb/one_piece_flush.h"
#include "miodb/zero_copy_merge.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

std::shared_ptr<PMTable>
makeTable(sim::NvmDevice *nvm, StatsCounters *stats,
          const std::vector<std::tuple<std::string, std::string,
                                       uint64_t, EntryType>> &entries,
          uint64_t table_id)
{
    size_t bytes = 1 << 19;
    for (const auto &[k, v, seq, type] : entries)
        bytes += k.size() + v.size() + 128;
    lsm::MemTable mem(bytes, table_id * 3 + 11);
    for (const auto &[k, v, seq, type] : entries)
        EXPECT_TRUE(mem.add(Slice(k), seq, type, Slice(v)));
    return onePieceFlush(&mem, nvm, stats, 16, table_id);
}

TEST(PmRepositoryTest, MergeCopiesLiveEntries)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    auto src = makeTable(&nvm, &stats,
                         {{"a", "1", 1, EntryType::kValue},
                          {"b", "2", 2, EntryType::kValue}},
                         1);
    ASSERT_TRUE(repo.mergeTable(src.get()).isOk());
    EXPECT_EQ(repo.entryCount(), 2u);
    EXPECT_EQ(stats.lazy_copy_merges.load(), 1u);

    std::string v;
    EntryType t;
    uint64_t seq;
    ASSERT_TRUE(repo.get(Slice("a"), &v, &t, &seq));
    EXPECT_EQ(v, "1");
    EXPECT_FALSE(repo.get(Slice("zz"), &v, &t, &seq));
}

TEST(PmRepositoryTest, SourceIndependentAfterMerge)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    {
        auto src = makeTable(&nvm, &stats,
                             {{"k", "v", 1, EntryType::kValue}}, 1);
        repo.mergeTable(src.get());
        // src (and its arenas) reclaimed here -- the lazy GC step.
    }
    std::string v;
    EntryType t;
    ASSERT_TRUE(repo.get(Slice("k"), &v, &t, nullptr));
    EXPECT_EQ(v, "v");
}

TEST(PmRepositoryTest, NewerVersionReplacesOlder)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    auto t1 = makeTable(&nvm, &stats,
                        {{"k", "old", 1, EntryType::kValue}}, 1);
    repo.mergeTable(t1.get());
    auto t2 = makeTable(&nvm, &stats,
                        {{"k", "new", 9, EntryType::kValue}}, 2);
    repo.mergeTable(t2.get());

    EXPECT_EQ(repo.entryCount(), 1u);
    EXPECT_GT(repo.garbageBytes(), 0u);  // the old node is unlinked
    std::string v;
    EntryType t;
    ASSERT_TRUE(repo.get(Slice("k"), &v, &t, nullptr));
    EXPECT_EQ(v, "new");
}

TEST(PmRepositoryTest, DuplicatesWithinSourceCollapse)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    auto src = makeTable(&nvm, &stats,
                         {{"k", "v5", 5, EntryType::kValue},
                          {"k", "v9", 9, EntryType::kValue}},
                         1);
    repo.mergeTable(src.get());
    EXPECT_EQ(repo.entryCount(), 1u);
    std::string v;
    EntryType t;
    ASSERT_TRUE(repo.get(Slice("k"), &v, &t, nullptr));
    EXPECT_EQ(v, "v9");
}

TEST(PmRepositoryTest, TombstoneDeletesAndIsDropped)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    auto t1 = makeTable(&nvm, &stats,
                        {{"dead", "v", 1, EntryType::kValue},
                         {"live", "v", 2, EntryType::kValue}},
                        1);
    repo.mergeTable(t1.get());
    auto t2 = makeTable(&nvm, &stats,
                        {{"dead", "", 9, EntryType::kDeletion}}, 2);
    repo.mergeTable(t2.get());

    // Nothing lives below the repository: the key and the tombstone
    // are both gone.
    EXPECT_EQ(repo.entryCount(), 1u);
    std::string v;
    EntryType t;
    EXPECT_FALSE(repo.get(Slice("dead"), &v, &t, nullptr));
    EXPECT_TRUE(repo.get(Slice("live"), &v, &t, nullptr));
}

TEST(PmRepositoryTest, TombstoneForAbsentKeyIsNoOp)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    auto src = makeTable(&nvm, &stats,
                         {{"ghost", "", 5, EntryType::kDeletion}}, 1);
    repo.mergeTable(src.get());
    EXPECT_EQ(repo.entryCount(), 0u);
}

TEST(PmRepositoryTest, LargeMergeKeepsSortedOrder)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);
    Random rng(42);
    std::map<std::string, std::string> model;
    uint64_t seq = 1;
    for (int round = 0; round < 5; round++) {
        std::vector<std::tuple<std::string, std::string, uint64_t,
                               EntryType>> batch;
        for (int i = 0; i < 200; i++) {
            std::string k = makeKey(rng.uniform(500));
            std::string v = "v" + std::to_string(seq);
            batch.emplace_back(k, v, seq, EntryType::kValue);
            model[k] = v;
            seq++;
        }
        auto src = makeTable(&nvm, &stats, batch, round + 1);
        repo.mergeTable(src.get());
    }
    EXPECT_EQ(repo.entryCount(), model.size());
    // Iterator yields sorted unique user keys matching the model.
    auto iter = repo.newIterator();
    auto model_it = model.begin();
    for (iter->seekToFirst(); iter->valid(); iter->next(), ++model_it) {
        ASSERT_NE(model_it, model.end());
        EXPECT_EQ(extractUserKey(iter->key()).toString(),
                  model_it->first);
        EXPECT_EQ(iter->value().toString(), model_it->second);
    }
    EXPECT_EQ(model_it, model.end());
}

TEST(PmRepositoryTest, ReadersSurviveCrashMidMerge)
{
    // A lazy-copy migration crashes halfway through publishing its
    // nodes while reader threads run gets concurrently. Publication
    // is per-node atomic, so each key must always resolve to its old
    // or its new value -- never vanish, never tear. Recovery re-runs
    // the same migration (that is what finishMigration does after a
    // crash) under the same read load and must converge.
    constexpr int kKeys = 50;
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();
    sim::NvmDevice nvm;
    StatsCounters stats;
    PmRepository repo(&nvm, &stats);

    std::vector<std::tuple<std::string, std::string, uint64_t,
                           EntryType>> gen1, gen2;
    for (int i = 0; i < kKeys; i++) {
        gen1.emplace_back(makeKey(i), "old-" + std::to_string(i),
                          static_cast<uint64_t>(i + 1),
                          EntryType::kValue);
        gen2.emplace_back(makeKey(i), "new-" + std::to_string(i),
                          static_cast<uint64_t>(1000 + i),
                          EntryType::kValue);
    }
    repo.mergeTable(makeTable(&nvm, &stats, gen1, 1).get());
    auto src = makeTable(&nvm, &stats, gen2, 2);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; r++) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                for (int i = 0; i < kKeys; i++) {
                    std::string v;
                    EntryType t;
                    EXPECT_TRUE(repo.get(Slice(makeKey(i)), &v, &t,
                                         nullptr))
                        << "key " << i << " vanished mid-migration";
                    EXPECT_TRUE(v == "old-" + std::to_string(i) ||
                                v == "new-" + std::to_string(i))
                        << "key " << i << " torn: " << v;
                }
            }
        });
    }

    fp.armCrash("lcm.publish_node", kKeys / 2);
    bool crashed = false;
    try {
        repo.mergeTable(src.get());
    } catch (const sim::SimCrash &) {
        crashed = true;
    }
    EXPECT_TRUE(crashed);
    fp.disarmAll();

    ASSERT_TRUE(repo.mergeTable(src.get()).isOk());
    stop.store(true);
    for (auto &t : readers)
        t.join();

    EXPECT_EQ(repo.entryCount(), static_cast<uint64_t>(kKeys));
    std::string v;
    EntryType t;
    for (int i = 0; i < kKeys; i++) {
        ASSERT_TRUE(repo.get(Slice(makeKey(i)), &v, &t, nullptr)) << i;
        EXPECT_EQ(v, "new-" + std::to_string(i)) << i;
    }
}

using Entry = std::tuple<std::string, std::string, uint64_t, EntryType>;

/** Every entry of @p list in internal order. */
std::vector<Entry>
entriesOf(const SkipList &list)
{
    std::vector<Entry> out;
    SkipList::Iterator it(&list);
    for (it.seekToFirst(); it.valid(); it.next()) {
        out.emplace_back(it.key().toString(), it.value().toString(),
                         it.seq(), it.entryType());
    }
    return out;
}

/**
 * @p n old entries and @p n interleaved newer ones that overwrite
 * every third old key and add keys between the old ones.
 */
std::pair<std::vector<Entry>, std::vector<Entry>>
interleavedInputs(int n, size_t value_size)
{
    std::vector<Entry> older, newer;
    for (int i = 0; i < n; i++) {
        older.emplace_back(makeKey(2 * i),
                           "old" + std::to_string(i) +
                               std::string(value_size, 'o'),
                           1 + i, EntryType::kValue);
        const int key = i % 3 == 0 ? 2 * i : 2 * i + 1;
        newer.emplace_back(makeKey(key),
                           "new" + std::to_string(i) +
                               std::string(value_size, 'n'),
                           1 + n + i, EntryType::kValue);
    }
    return {older, newer};
}

TEST(PmRepositoryTest, OrderedMergeChargesTheNodesItTouches)
{
    // Runs arrive in key order, so each descent resumes from the
    // previous run's splice: copying N keys in beside M costs a few
    // node reads per key, not a log2(M)-deep descent each.
    constexpr int kN = 20000;
    constexpr int kM = 20000;
    for (bool new_above : {true, false}) {
        SCOPED_TRACE(new_above);
        sim::NvmDevice nvm;
        StatsCounters stats;
        PmRepository repo(&nvm, &stats);
        std::vector<Entry> older, newer;
        const int old_base = new_above ? 0 : kN;
        const int new_base = new_above ? kM : 0;
        for (int i = 0; i < kM; i++) {
            older.emplace_back(makeKey(old_base + i), "o", 1 + i,
                               EntryType::kValue);
        }
        for (int i = 0; i < kN; i++) {
            newer.emplace_back(makeKey(new_base + i), "n", 1 + kM + i,
                               EntryType::kValue);
        }
        ASSERT_TRUE(
            repo.mergeTable(makeTable(&nvm, &stats, older, 1).get()).isOk());
        auto src = makeTable(&nvm, &stats, newer, 2);

        const uint64_t before = nvm.meters().bytes_read;
        ASSERT_TRUE(repo.mergeTable(src.get()).isOk());
        const uint64_t node_reads = (nvm.meters().bytes_read - before) / 64;
        EXPECT_LE(node_reads, 8u * kN);
        EXPECT_EQ(repo.entryCount(), static_cast<uint64_t>(kN + kM));
    }
}

TEST(PmRepositoryTest, InterleavedMergeMatchesCopyingMerge)
{
    const auto [older, newer] = interleavedInputs(3000, 8);
    for (uint64_t keep_seq : {kMaxSequence, uint64_t{3000 + 1500}}) {
        SCOPED_TRACE(keep_seq);
        sim::NvmDevice nvm;
        StatsCounters stats;
        auto copied = copyingMerge(makeTable(&nvm, &stats, newer, 2),
                                   makeTable(&nvm, &stats, older, 1),
                                   &nvm, &stats, 3, keep_seq);
        ASSERT_NE(copied, nullptr);

        PmRepository repo(&nvm, &stats);
        ASSERT_TRUE(
            repo.mergeTable(makeTable(&nvm, &stats, older, 1).get(),
                            keep_seq)
                .isOk());
        ASSERT_TRUE(
            repo.mergeTable(makeTable(&nvm, &stats, newer, 2).get(),
                            keep_seq)
                .isOk());
        const std::vector<Entry> got = entriesOf(repo.list());
        EXPECT_EQ(got, entriesOf(copied->list()));
        EXPECT_EQ(repo.entryCount(), got.size());
    }
}

TEST(PmRepositoryTest, RetryAfterBudgetBounceMatchesCleanMerge)
{
    // The second merge needs a second 4 MiB arena chunk, which the NVM
    // budget denies halfway: mergeTable answers busy with part of the
    // table copied in. The retry starts its descents from the head
    // again and must end where an unbounced merge ends.
    const auto [older, newer] = interleavedInputs(6000, 512);
    auto merged = [&](bool bounce) {
        sim::NvmDevice nvm;
        StatsCounters stats;
        PmRepository repo(&nvm, &stats);
        EXPECT_TRUE(
            repo.mergeTable(makeTable(&nvm, &stats, older, 1).get()).isOk());
        auto src = makeTable(&nvm, &stats, newer, 2);
        if (bounce) {
            nvm.setCapacityBytes(nvm.meters().bytes_allocated + 4096);
            const uint64_t before = repo.entryCount();
            EXPECT_TRUE(repo.mergeTable(src.get()).isBusy());
            EXPECT_GT(repo.entryCount(), before);  // a partial merge
            nvm.setCapacityBytes(0);
        }
        EXPECT_TRUE(repo.mergeTable(src.get()).isOk());
        EXPECT_EQ(repo.entryCount(), repo.list().entryCount());
        return entriesOf(repo.list());
    };
    const std::vector<Entry> want = merged(false);
    EXPECT_EQ(want.size(), 6000u + 6000u - 2000u);
    EXPECT_EQ(merged(true), want);
}

TEST(SsdRepositoryTest, MergeFlushesToLsm)
{
    sim::NvmDevice nvm;
    sim::SsdDevice ssd;
    sim::SsdMedium medium(&ssd);
    StatsCounters stats;
    lsm::LsmOptions options;
    options.sstable_target_size = 8 << 10;
    SsdRepository repo(options, &medium, &stats);

    auto src = makeTable(&nvm, &stats,
                         {{"a", "1", 1, EntryType::kValue},
                          {"b", "2", 2, EntryType::kValue}},
                         1);
    ASSERT_TRUE(repo.mergeTable(src.get()).isOk());
    repo.waitIdle();
    EXPECT_GT(ssd.meters().bytes_written, 0u);

    std::string v;
    EntryType t;
    ASSERT_TRUE(repo.get(Slice("a"), &v, &t, nullptr));
    EXPECT_EQ(v, "1");
    EXPECT_EQ(repo.entryCount(), 2u);
}

TEST(SsdRepositoryTest, MultipleMergesCompact)
{
    sim::NvmDevice nvm;
    sim::SsdDevice ssd;
    sim::SsdMedium medium(&ssd);
    StatsCounters stats;
    lsm::LsmOptions options;
    options.sstable_target_size = 4 << 10;
    options.level1_max_bytes = 16 << 10;
    options.l0_compaction_trigger = 2;
    SsdRepository repo(options, &medium, &stats);

    std::map<std::string, std::string> model;
    Random rng(17);
    uint64_t seq = 1;
    for (int round = 0; round < 6; round++) {
        std::vector<std::tuple<std::string, std::string, uint64_t,
                               EntryType>> batch;
        for (int i = 0; i < 100; i++) {
            std::string k = makeKey(rng.uniform(300));
            std::string v = "r" + std::to_string(seq);
            batch.emplace_back(k, v, seq, EntryType::kValue);
            model[k] = v;
            seq++;
        }
        auto src = makeTable(&nvm, &stats, batch, round + 1);
        repo.mergeTable(src.get());
    }
    repo.waitIdle();
    std::string v;
    EntryType t;
    for (const auto &[k, expect] : model) {
        ASSERT_TRUE(repo.get(Slice(k), &v, &t, nullptr)) << k;
        EXPECT_EQ(v, expect) << k;
    }
}

} // namespace
} // namespace mio::miodb
