/**
 * @file
 * Read-path overhaul units: skip-list inline key prefixes, level
 * manifest publication, merge-pair range pruning, the bits_per_key=0
 * summary gate, and the scan count<=0 early return.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "lsm/memtable.h"
#include "miodb/level_manager.h"
#include "miodb/miodb.h"
#include "miodb/one_piece_flush.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

// ---------------------------------------------------------------------
// Node::keyPrefix ordering semantics
// ---------------------------------------------------------------------

TEST(KeyPrefixTest, DifferingPrefixesOrderLikeFullCompare)
{
    // Tricky shapes: empty, short, embedded NULs, shared 8-byte
    // prefixes, high-bit bytes (signedness traps).
    std::vector<std::string> keys = {
        "",
        std::string(1, '\0'),
        std::string("\0\0a", 3),
        "a",
        std::string("a\0", 2),
        std::string("a\0b", 3),
        "ab",
        "abcdefgh",
        "abcdefgha",
        "abcdefghb",
        "abcdefgi",
        "b",
        "\x7f",
        "\x80",
        std::string("\xff\xfe", 2),
        std::string("\xff\xff", 2),
    };
    for (const auto &a : keys) {
        for (const auto &b : keys) {
            uint64_t pa = SkipList::Node::keyPrefix(Slice(a));
            uint64_t pb = SkipList::Node::keyPrefix(Slice(b));
            int full = Slice(a).compare(Slice(b));
            if (pa != pb) {
                EXPECT_EQ(pa < pb, full < 0)
                    << "a=" << a << " b=" << b;
            } else if (a.size() <= 8 && b.size() <= 8 &&
                       a.find('\0') == std::string::npos &&
                       b.find('\0') == std::string::npos) {
                // NUL-free keys <= 8 bytes are fully captured by the
                // prefix, so equality must be exact there.
                EXPECT_EQ(full, 0) << "a=" << a << " b=" << b;
            }
        }
    }
}

TEST(KeyPrefixTest, RandomKeysAgreeWithCompare)
{
    Random rng(0xbeef);
    std::vector<std::string> keys;
    for (int i = 0; i < 300; i++) {
        std::string k(rng.uniform(12), '\0');
        for (auto &c : k)
            c = static_cast<char>(rng.uniform(256));
        keys.push_back(std::move(k));
    }
    for (const auto &a : keys) {
        for (const auto &b : keys) {
            uint64_t pa = SkipList::Node::keyPrefix(Slice(a));
            uint64_t pb = SkipList::Node::keyPrefix(Slice(b));
            if (pa < pb) {
                EXPECT_LT(Slice(a).compare(Slice(b)), 0);
            } else if (pa > pb) {
                EXPECT_GT(Slice(a).compare(Slice(b)), 0);
            }
        }
    }
}

TEST(KeyPrefixTest, SkipListRoundTripsTrickyKeys)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    std::vector<std::string> keys = {
        std::string("\0", 1), std::string("a\0b", 3), "a", "abcdefgh",
        "abcdefgha", "abcdefghb", std::string("\xff\x00z", 3), "zz",
    };
    uint64_t seq = 1;
    for (const auto &k : keys)
        ASSERT_TRUE(list.insert(Slice(k), seq++, EntryType::kValue,
                                Slice("v-" + k)));
    std::string v;
    EntryType t;
    for (const auto &k : keys) {
        ASSERT_TRUE(list.get(Slice(k), &v, &t)) << "key len "
                                                << k.size();
        EXPECT_EQ(v, "v-" + k);
    }
    // In-order iteration must match Slice ordering.
    SkipList::Iterator it(&list);
    std::string prev;
    bool first = true;
    for (it.seekToFirst(); it.valid(); it.next()) {
        if (!first) {
            EXPECT_LT(Slice(prev).compare(it.key()), 0);
        }
        prev = it.key().toString();
        first = false;
    }
}

// ---------------------------------------------------------------------
// Manifest publication
// ---------------------------------------------------------------------

std::shared_ptr<PMTable>
makeTable(sim::NvmDevice *nvm, StatsCounters *stats,
          const std::map<std::string, std::string> &entries,
          uint64_t table_id)
{
    lsm::MemTable mem(1 << 16, table_id * 7 + 3);
    uint64_t seq = table_id * 1000;
    for (const auto &[k, v] : entries)
        EXPECT_TRUE(mem.add(Slice(k), seq++, EntryType::kValue,
                            Slice(v)));
    return onePieceFlush(&mem, nvm, stats, 16, table_id);
}

TEST(LevelManifestTest, PublishOnPushAndSummaryCoverage)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    BufferLevel level;
    level.enableBloomSummary(true);

    auto m0 = level.manifestSnapshot();
    ASSERT_NE(m0, nullptr);
    EXPECT_FALSE(m0->hasMembers());
    EXPECT_EQ(m0->summary, nullptr);

    level.push(makeTable(&nvm, &stats, {{"a", "1"}, {"b", "2"}}, 1));
    level.push(makeTable(&nvm, &stats, {{"m", "3"}, {"n", "4"}}, 2));

    auto m = level.manifestSnapshot();
    ASSERT_NE(m, m0);  // republished
    ASSERT_EQ(m->tables.size(), 2u);
    EXPECT_EQ(m->tables[0].table->tableId(), 2u);  // newest first
    EXPECT_EQ(m->tables[1].table->tableId(), 1u);
    EXPECT_EQ(m->tables[1].min_key, "a");
    EXPECT_EQ(m->tables[1].max_key, "b");
    EXPECT_TRUE(m->tables[1].coversKey(Slice("a")));
    EXPECT_FALSE(m->tables[1].coversKey(Slice("c")));
    ASSERT_NE(m->summary, nullptr);
    for (const char *k : {"a", "b", "m", "n"})
        EXPECT_TRUE(m->summary->mayContain(Slice(k))) << k;
    EXPECT_TRUE(m->summary->isSupersetOf(*m->tables[0].bloom));
    EXPECT_TRUE(m->summary->isSupersetOf(*m->tables[1].bloom));

    // acquireManifest() returns the same published object.
    EXPECT_EQ(level.acquireManifest(), m.get());
}

TEST(LevelManifestTest, MergeClaimCapturesPairRange)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    BufferLevel level;
    level.enableBloomSummary(true);
    level.push(makeTable(&nvm, &stats, {{"d", "1"}, {"g", "2"}}, 1));
    level.push(makeTable(&nvm, &stats, {{"p", "3"}, {"t", "4"}}, 2));
    level.push(makeTable(&nvm, &stats, {{"x", "5"}}, 3));

    auto before = level.manifestSnapshot();
    auto op = level.beginMerge();
    ASSERT_NE(op, nullptr);
    // Combined range of the two oldest tables, captured before any
    // node moves -- the reader's range gate for the in-flight pair.
    EXPECT_EQ(op->min_key, "d");
    EXPECT_EQ(op->max_key, "t");
    EXPECT_TRUE(op->coversKey(Slice("g")));
    EXPECT_TRUE(op->coversKey(Slice("p")));
    EXPECT_FALSE(op->coversKey(Slice("c")));
    EXPECT_FALSE(op->coversKey(Slice("u")));

    auto m = level.manifestSnapshot();
    ASSERT_NE(m, before);
    EXPECT_EQ(m->merge, op);
    ASSERT_NE(m->merge_newt_bloom, nullptr);
    ASSERT_NE(m->merge_oldt_bloom, nullptr);
    ASSERT_EQ(m->tables.size(), 1u);
    ASSERT_NE(m->summary, nullptr);
    // Summary still covers the claimed pair's keys.
    for (const char *k : {"d", "g", "p", "t", "x"})
        EXPECT_TRUE(m->summary->mayContain(Slice(k))) << k;

    level.finishMerge(op);
    auto after = level.manifestSnapshot();
    ASSERT_NE(after, m);
    EXPECT_EQ(after->merge, nullptr);
}

TEST(LevelManifestTest, MigrationPublishesCapturedRange)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    BufferLevel level;
    level.enableBloomSummary(true);
    level.push(makeTable(&nvm, &stats, {{"e", "1"}, {"k", "2"}}, 1));

    auto victim = level.beginMigration();
    ASSERT_NE(victim, nullptr);
    auto m = level.manifestSnapshot();
    EXPECT_EQ(m->migrating, victim);
    EXPECT_EQ(m->migrating_min, "e");
    EXPECT_EQ(m->migrating_max, "k");
    ASSERT_NE(m->summary, nullptr);
    EXPECT_TRUE(m->summary->isSupersetOf(*m->migrating_bloom));

    level.finishMigration();
    auto after = level.manifestSnapshot();
    EXPECT_EQ(after->migrating, nullptr);
    EXPECT_FALSE(after->hasMembers());
    EXPECT_EQ(after->summary, nullptr);
}

// ---------------------------------------------------------------------
// MioDB-level behavior
// ---------------------------------------------------------------------

MioOptions
smallOptions()
{
    MioOptions o;
    o.memtable_size = 1 << 14;
    o.elastic_levels = 4;
    o.bits_per_key = 16;
    o.enable_wal = false;
    return o;
}

TEST(ReadPathTest, SummaryDisabledWhenBloomOff)
{
    sim::NvmDevice nvm;
    MioOptions o = smallOptions();
    o.bits_per_key = 0;  // dummy filters: a summary would skip wrongly
    MioDB db(o, &nvm);
    for (int i = 0; i < 1500; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("val")).isOk());
    db.waitIdle();

    for (int l = 0; l < db.levels().numLevels(); l++)
        EXPECT_EQ(db.levels().level(l).manifestSnapshot()->summary,
                  nullptr);

    std::string v;
    for (int i = 0; i < 1500; i += 31)
        EXPECT_TRUE(db.get(Slice(makeKey(i)), &v).isOk()) << i;
    EXPECT_FALSE(db.get(Slice("never-written"), &v).isOk());
    EXPECT_EQ(db.stats().bloom_summary_skips.load(), 0u);
}

TEST(ReadPathTest, SummarySkipsCountedOnNegativeLookups)
{
    sim::NvmDevice nvm;
    MioOptions o = smallOptions();
    o.elastic_levels = 8;  // cascade can't drain: tables stay resident
    MioDB db(o, &nvm);
    for (int i = 0; i < 2000; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("val")).isOk());
    db.waitIdle();
    std::string v;
    for (int i = 0; i < 200; i++)
        EXPECT_FALSE(db.get(Slice(makeKey(i * 7) + "q"), &v).isOk());
    EXPECT_GT(db.stats().bloom_summary_skips.load(), 0u);
}

TEST(ReadPathTest, ScanNonPositiveCountReturnsEmpty)
{
    sim::NvmDevice nvm;
    MioDB db(smallOptions(), &nvm);
    for (int i = 0; i < 100; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("val")).isOk());

    std::vector<std::pair<std::string, std::string>> out = {
        {"stale", "stale"}};
    ASSERT_TRUE(db.scan(Slice(makeKey(0)), 0, &out).isOk());
    EXPECT_TRUE(out.empty());
    out.assign({{"stale", "stale"}});
    ASSERT_TRUE(db.scan(Slice(makeKey(0)), -5, &out).isOk());
    EXPECT_TRUE(out.empty());
    // Sanity: a positive count still scans.
    ASSERT_TRUE(db.scan(Slice(makeKey(0)), 10, &out).isOk());
    EXPECT_EQ(out.size(), 10u);
}

} // namespace
} // namespace mio::miodb
