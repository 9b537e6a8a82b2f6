/** @file Unit tests for block/table serialization and the table cache. */
#include <gtest/gtest.h>

#include <map>

#include "sstable/block_builder.h"
#include "sstable/block_reader.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/random.h"

namespace mio {
namespace {

std::string
ikey(const std::string &user_key, uint64_t seq,
     EntryType type = EntryType::kValue)
{
    std::string k;
    appendInternalKey(&k, Slice(user_key), seq, type);
    return k;
}

TEST(InternalKeyTest, PackParseRoundTrip)
{
    std::string k = ikey("user", 77, EntryType::kDeletion);
    ParsedInternalKey parsed;
    ASSERT_TRUE(parseInternalKey(Slice(k), &parsed));
    EXPECT_EQ(parsed.user_key.toString(), "user");
    EXPECT_EQ(parsed.seq, 77u);
    EXPECT_EQ(parsed.type, EntryType::kDeletion);
}

TEST(InternalKeyTest, OrderingKeyAscSeqDesc)
{
    EXPECT_LT(compareInternalKey(Slice(ikey("a", 1)),
                                 Slice(ikey("b", 9))), 0);
    // Same user key: larger seq sorts first.
    EXPECT_LT(compareInternalKey(Slice(ikey("k", 9)),
                                 Slice(ikey("k", 1))), 0);
    EXPECT_EQ(compareInternalKey(Slice(ikey("k", 5)),
                                 Slice(ikey("k", 5))), 0);
    // Lookup key (max seq) sorts before any stored version.
    EXPECT_LT(compareInternalKey(Slice(makeLookupKey(Slice("k"))),
                                 Slice(ikey("k", 1000))), 0);
}

TEST(BlockTest, BuildAndIterate)
{
    BlockBuilder builder(4);
    std::vector<std::pair<std::string, std::string>> entries;
    for (int i = 0; i < 100; i++)
        entries.emplace_back(ikey(makeKey(i), i + 1), "value" +
                                                      std::to_string(i));
    for (const auto &[k, v] : entries)
        builder.add(Slice(k), Slice(v));
    Block block(builder.finish().toString());

    Block::Iter it(&block);
    size_t idx = 0;
    for (it.seekToFirst(); it.valid(); it.next(), idx++) {
        ASSERT_LT(idx, entries.size());
        EXPECT_EQ(it.key().toString(), entries[idx].first);
        EXPECT_EQ(it.value().toString(), entries[idx].second);
    }
    EXPECT_EQ(idx, entries.size());
}

TEST(BlockTest, SeekFindsFirstGreaterOrEqual)
{
    BlockBuilder builder(4);
    for (int i = 0; i < 100; i += 2)
        builder.add(Slice(ikey(makeKey(i), 1)), Slice("v"));
    Block block(builder.finish().toString());
    Block::Iter it(&block);

    // Exact hit.
    it.seek(Slice(makeLookupKey(Slice(makeKey(10)))));
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(extractUserKey(it.key()).toString(), makeKey(10));
    // Gap: lands on the next even key.
    it.seek(Slice(makeLookupKey(Slice(makeKey(11)))));
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(extractUserKey(it.key()).toString(), makeKey(12));
    // Past the end.
    it.seek(Slice(makeLookupKey(Slice(makeKey(99)))));
    EXPECT_FALSE(it.valid());
}

TEST(BlockTest, PrefixCompressionShrinksBlock)
{
    // Keys share a long prefix; compressed block must be much smaller
    // than raw key bytes.
    BlockBuilder builder(16);
    size_t raw = 0;
    for (int i = 0; i < 200; i++) {
        std::string k = ikey("commonprefix/commonprefix/" + makeKey(i),
                             1);
        raw += k.size();
        builder.add(Slice(k), Slice("v"));
    }
    Block block(builder.finish().toString());
    EXPECT_LT(block.size(), raw);
}

TEST(TableTest, BuildOpenGet)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);

    TableBuilder builder(1024, 16);
    std::map<std::string, std::string> model;
    for (int i = 0; i < 500; i++) {
        std::string uk = makeKey(i);
        std::string v = "value-" + std::to_string(i);
        builder.add(Slice(ikey(uk, i + 1)), Slice(v));
        model[uk] = v;
    }
    EXPECT_EQ(builder.numEntries(), 500u);
    std::string contents = builder.finish();
    ASSERT_TRUE(medium.writeBlob("t1", Slice(contents)).isOk());

    std::shared_ptr<TableReader> table;
    std::atomic<uint64_t> deser{0};
    ASSERT_TRUE(TableReader::open(&medium, "t1", &table, &deser).isOk());
    EXPECT_EQ(table->numEntries(), 500u);

    std::string v;
    EntryType t;
    uint64_t seq;
    for (const auto &[uk, expect] : model) {
        ASSERT_TRUE(table->get(Slice(uk), &v, &t, &seq).isOk()) << uk;
        EXPECT_EQ(v, expect);
        EXPECT_EQ(t, EntryType::kValue);
    }
    EXPECT_TRUE(table->get(Slice(makeKey(9999)), &v, &t).isNotFound());
    EXPECT_GT(deser.load(), 0u);  // block reads were timed
}

TEST(TableTest, TombstonesReadBack)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);
    TableBuilder builder;
    builder.add(Slice(ikey("dead", 5, EntryType::kDeletion)), Slice());
    builder.add(Slice(ikey("live", 6)), Slice("v"));
    medium.writeBlob("t", Slice(builder.finish()));

    std::shared_ptr<TableReader> table;
    ASSERT_TRUE(TableReader::open(&medium, "t", &table).isOk());
    std::string v;
    EntryType t;
    ASSERT_TRUE(table->get(Slice("dead"), &v, &t).isOk());
    EXPECT_EQ(t, EntryType::kDeletion);
}

TEST(TableTest, MultipleVersionsNewestWins)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);
    TableBuilder builder;
    builder.add(Slice(ikey("k", 9)), Slice("new"));
    builder.add(Slice(ikey("k", 3)), Slice("old"));
    medium.writeBlob("t", Slice(builder.finish()));

    std::shared_ptr<TableReader> table;
    ASSERT_TRUE(TableReader::open(&medium, "t", &table).isOk());
    std::string v;
    EntryType t;
    uint64_t seq;
    ASSERT_TRUE(table->get(Slice("k"), &v, &t, &seq).isOk());
    EXPECT_EQ(v, "new");
    EXPECT_EQ(seq, 9u);
}

TEST(TableTest, IteratorFullScanInOrder)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);
    TableBuilder builder(512, 16);  // several blocks
    const int n = 300;
    for (int i = 0; i < n; i++)
        builder.add(Slice(ikey(makeKey(i), 1)),
                    Slice("v" + std::to_string(i)));
    medium.writeBlob("t", Slice(builder.finish()));

    std::shared_ptr<TableReader> table;
    ASSERT_TRUE(TableReader::open(&medium, "t", &table).isOk());
    TableReader::Iterator it(table.get());
    int i = 0;
    for (it.seekToFirst(); it.valid(); it.next(), i++) {
        EXPECT_EQ(extractUserKey(it.key()).toString(), makeKey(i));
        EXPECT_EQ(it.value().toString(), "v" + std::to_string(i));
    }
    EXPECT_EQ(i, n);

    it.seek(Slice(makeLookupKey(Slice(makeKey(250)))));
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(extractUserKey(it.key()).toString(), makeKey(250));
}

TEST(TableTest, SmallestLargestKeys)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);
    TableBuilder builder;
    builder.add(Slice(ikey("aaa", 1)), Slice("1"));
    builder.add(Slice(ikey("zzz", 2)), Slice("2"));
    medium.writeBlob("t", Slice(builder.finish()));
    std::shared_ptr<TableReader> table;
    ASSERT_TRUE(TableReader::open(&medium, "t", &table).isOk());
    EXPECT_EQ(extractUserKey(table->smallestKey()).toString(), "aaa");
    EXPECT_EQ(extractUserKey(table->largestKey()).toString(), "zzz");
}

TEST(TableTest, CorruptFooterRejected)
{
    sim::NvmDevice nvm;
    sim::NvmMedium medium(&nvm);
    medium.writeBlob("bad", Slice("too short"));
    std::shared_ptr<TableReader> table;
    EXPECT_FALSE(TableReader::open(&medium, "bad", &table).isOk());

    TableBuilder builder;
    builder.add(Slice(ikey("k", 1)), Slice("v"));
    std::string contents = builder.finish();
    contents.back() ^= 0xff;  // corrupt the magic
    medium.writeBlob("bad2", Slice(contents));
    EXPECT_TRUE(
        TableReader::open(&medium, "bad2", &table).isCorruption());
}

} // namespace
} // namespace mio
