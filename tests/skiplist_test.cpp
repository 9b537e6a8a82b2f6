/** @file Unit and property tests for the arena-based skip list. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "mem/arena.h"
#include "miodb/skiplist_merge_util.h"
#include "skiplist/skiplist.h"
#include "util/random.h"

namespace mio {
namespace {

TEST(SkipListTest, EmptyList)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.entryCount(), 0u);
    std::string v;
    EntryType t;
    EXPECT_FALSE(list.get(Slice("k"), &v, &t));
}

TEST(SkipListTest, InsertAndGet)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    ASSERT_TRUE(list.insert(Slice("key1"), 1, EntryType::kValue,
                            Slice("val1")));
    std::string v;
    EntryType t;
    uint64_t seq;
    ASSERT_TRUE(list.get(Slice("key1"), &v, &t, &seq));
    EXPECT_EQ(v, "val1");
    EXPECT_EQ(t, EntryType::kValue);
    EXPECT_EQ(seq, 1u);
    EXPECT_FALSE(list.get(Slice("key2"), &v, &t));
}

TEST(SkipListTest, NewerVersionShadowsOlder)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    list.insert(Slice("k"), 1, EntryType::kValue, Slice("old"));
    list.insert(Slice("k"), 5, EntryType::kValue, Slice("new"));
    std::string v;
    EntryType t;
    uint64_t seq;
    ASSERT_TRUE(list.get(Slice("k"), &v, &t, &seq));
    EXPECT_EQ(v, "new");
    EXPECT_EQ(seq, 5u);
    EXPECT_EQ(list.entryCount(), 2u);  // both versions retained
}

TEST(SkipListTest, TombstoneVisible)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    list.insert(Slice("k"), 1, EntryType::kValue, Slice("v"));
    list.insert(Slice("k"), 2, EntryType::kDeletion, Slice());
    std::string v;
    EntryType t;
    ASSERT_TRUE(list.get(Slice("k"), &v, &t));
    EXPECT_EQ(t, EntryType::kDeletion);
}

TEST(SkipListTest, ReturnsFalseWhenArenaFull)
{
    Arena arena(512);
    SkipList list(&arena);
    bool inserted_any = false;
    bool hit_full = false;
    for (int i = 0; i < 100; i++) {
        if (list.insert(Slice(makeKey(i)), i + 1, EntryType::kValue,
                        Slice("0123456789"))) {
            inserted_any = true;
        } else {
            hit_full = true;
            break;
        }
    }
    EXPECT_TRUE(inserted_any);
    EXPECT_TRUE(hit_full);
}

TEST(SkipListTest, IteratorYieldsSortedOrder)
{
    Arena arena(1 << 18);
    SkipList list(&arena);
    Random rng(99);
    std::map<std::string, std::string> model;
    for (int i = 0; i < 500; i++) {
        std::string key = makeKey(rng.uniform(10000));
        std::string value = "v" + std::to_string(i);
        if (list.insert(Slice(key), i + 1, EntryType::kValue,
                        Slice(value))) {
            model[key] = value;  // later seq wins
        }
    }
    SkipList::Iterator it(&list);
    std::string prev_key;
    uint64_t prev_seq = 0;
    bool first = true;
    size_t count = 0;
    for (it.seekToFirst(); it.valid(); it.next()) {
        std::string key = it.key().toString();
        if (!first) {
            // (key asc, seq desc)
            if (key == prev_key)
                EXPECT_LT(it.seq(), prev_seq);
            else
                EXPECT_GT(key, prev_key);
        }
        prev_key = key;
        prev_seq = it.seq();
        first = false;
        count++;
    }
    EXPECT_EQ(count, list.entryCount());
    // The newest version per key matches the model.
    for (const auto &[key, value] : model) {
        std::string v;
        EntryType t;
        ASSERT_TRUE(list.get(Slice(key), &v, &t)) << key;
        EXPECT_EQ(v, value);
    }
}

TEST(SkipListTest, SeekPositionsAtFirstGreaterOrEqual)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    list.insert(Slice("b"), 1, EntryType::kValue, Slice("1"));
    list.insert(Slice("d"), 2, EntryType::kValue, Slice("2"));
    SkipList::Iterator it(&list);
    it.seek(Slice("c"));
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key().toString(), "d");
    it.seek(Slice("b"));
    ASSERT_TRUE(it.valid());
    EXPECT_EQ(it.key().toString(), "b");
    it.seek(Slice("e"));
    EXPECT_FALSE(it.valid());
}

TEST(SkipListTest, UnlinkFirstRemovesHead)
{
    Arena arena(1 << 16);
    SkipList list(&arena);
    list.insert(Slice("a"), 1, EntryType::kValue, Slice("1"));
    list.insert(Slice("b"), 2, EntryType::kValue, Slice("2"));
    SkipList::Node *n = list.unlinkFirst();
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->key().toString(), "a");
    EXPECT_EQ(list.entryCount(), 1u);
    std::string v;
    EntryType t;
    EXPECT_FALSE(list.get(Slice("a"), &v, &t));
    EXPECT_TRUE(list.get(Slice("b"), &v, &t));
    EXPECT_EQ(list.unlinkFirst()->key().toString(), "b");
    EXPECT_EQ(list.unlinkFirst(), nullptr);
}

TEST(SkipListTest, RelocateFixesAllPointers)
{
    // Build a list in one arena, memcpy its image, fix pointers, and
    // verify the clone behaves identically -- the one-piece-flush core.
    const size_t cap = 1 << 17;
    Arena arena(cap);
    SkipList list(&arena);
    Random rng(5);
    for (int i = 0; i < 300; i++) {
        ASSERT_TRUE(list.insert(Slice(makeKey(rng.uniform(1000))), i + 1,
                                EntryType::kValue,
                                Slice("value" + std::to_string(i))));
    }

    std::string image(arena.base(), arena.used());
    std::vector<char> clone(image.begin(), image.end());
    auto *head = reinterpret_cast<SkipList::Node *>(clone.data());
    size_t fixed = SkipList::relocate(head, clone.data() - arena.base(),
                                      arena.base(), arena.used());
    EXPECT_GT(fixed, 300u);  // at least one pointer per node

    SkipList relocated(head, list.entryCount());
    EXPECT_EQ(relocated.entryCount(), list.entryCount());
    SkipList::Iterator a(&list), b(&relocated);
    a.seekToFirst();
    b.seekToFirst();
    while (a.valid()) {
        ASSERT_TRUE(b.valid());
        EXPECT_EQ(a.key().toString(), b.key().toString());
        EXPECT_EQ(a.value().toString(), b.value().toString());
        EXPECT_EQ(a.seq(), b.seq());
        a.next();
        b.next();
    }
    EXPECT_FALSE(b.valid());
}

TEST(SkipListTest, LinkNodeSplicesDetachedNode)
{
    Arena a1(1 << 16), a2(1 << 16);
    SkipList list(&a1);
    list.insert(Slice("a"), 1, EntryType::kValue, Slice("1"));
    list.insert(Slice("c"), 2, EntryType::kValue, Slice("3"));
    // Node born in a different arena, linked across arenas (the
    // zero-copy merge primitive).
    SkipList::Node *n = SkipList::makeNode(&a2, Slice("b"), 3,
                                           EntryType::kValue, Slice("2"),
                                           2);
    SkipList::Splice splice;
    SkipList::Node *succ = list.findGreaterOrEqual(Slice("b"), &splice);
    ASSERT_NE(succ, nullptr);
    EXPECT_EQ(succ->key().toString(), "c");
    list.linkNode(n, &splice);
    EXPECT_EQ(list.entryCount(), 3u);
    std::string v;
    EntryType t;
    ASSERT_TRUE(list.get(Slice("b"), &v, &t));
    EXPECT_EQ(v, "2");
}

TEST(SkipListTest, EntryBeforeOrdering)
{
    EXPECT_TRUE(SkipList::entryBefore(Slice("a"), 1, Slice("b"), 9));
    EXPECT_FALSE(SkipList::entryBefore(Slice("b"), 9, Slice("a"), 1));
    // Same key: larger seq first.
    EXPECT_TRUE(SkipList::entryBefore(Slice("k"), 9, Slice("k"), 3));
    EXPECT_FALSE(SkipList::entryBefore(Slice("k"), 3, Slice("k"), 9));
}

TEST(SkipListTest, RandomHeightWithinBounds)
{
    Arena arena(1 << 12);
    SkipList list(&arena);
    for (int i = 0; i < 10000; i++) {
        int h = list.randomHeight();
        EXPECT_GE(h, 1);
        EXPECT_LE(h, SkipList::kMaxHeight);
    }
}

TEST(SkipListTest, LargeValuesSurviveRoundTrip)
{
    Arena arena(1 << 20);
    SkipList list(&arena);
    std::string big(64 * 1024, 'z');
    ASSERT_TRUE(list.insert(Slice("big"), 1, EntryType::kValue,
                            Slice(big)));
    std::string v;
    EntryType t;
    ASSERT_TRUE(list.get(Slice("big"), &v, &t));
    EXPECT_EQ(v, big);
}

/** Nodes a search from the head compares to find @p key. */
int
headCompares(const SkipList &list, const Slice &key)
{
    SkipList::Splice splice = list.headSplice();
    int compared = 0;
    list.findGreaterOrEqualFrom(key, &splice, &compared);
    return compared;
}

TEST(SkipListTest, FingerSearchMatchesHeadSearch)
{
    // A merge drains a key-ordered stream into a list, resuming every
    // search from the previous one's splice and linking/unlinking
    // between searches. The finger must land exactly where a search
    // from the head lands: same successor, same predecessor at every
    // level.
    const int kSizes[] = {1, 2, 7, 100, 5000, 250000};
    for (int size : kSizes) {
        SCOPED_TRACE(size);
        const uint64_t key_space = static_cast<uint64_t>(size) * 2 + 1;
        Arena arena(static_cast<size_t>(size) * 160 + (1 << 16));
        SkipList list(&arena, size * 7 + 1);
        Random rnd(size + 3);
        uint64_t seq = 1;
        for (int i = 0; i < size; i++) {
            ASSERT_TRUE(list.insert(Slice(makeKey(rnd.uniform(key_space))),
                                    seq++, EntryType::kValue, Slice("o")));
        }

        // The stream: random keys with duplicates, newer than the
        // list, in internal order (key ascending, seq descending).
        const int stream_len = std::min(size, 20000);
        std::vector<std::pair<std::string, uint64_t>> stream;
        for (int i = 0; i < stream_len; i++)
            stream.emplace_back(makeKey(rnd.uniform(key_space)), seq++);
        // Versions newer than keep_seq stay linked for a pinned
        // snapshot, as snapshot-gated merges keep them.
        const uint64_t keep_seq = seq - stream_len / 2;
        std::sort(stream.begin(), stream.end(),
                  [](const auto &a, const auto &b) {
                      return SkipList::entryBefore(Slice(a.first), a.second,
                                                   Slice(b.first), b.second);
                  });

        Arena node_arena(static_cast<size_t>(stream_len) * 160 + 4096);
        SkipList::Splice finger = list.headSplice();
        int mismatches = 0;
        for (const auto &[key, s] : stream) {
            SkipList::Splice want;
            SkipList::Node *want_succ =
                list.findGreaterOrEqual(Slice(key), &want);
            SkipList::Splice splice = finger;
            int compared = 0;
            SkipList::Node *succ = list.findGreaterOrEqualFrom(
                Slice(key), &splice, &compared);
            bool same = succ == want_succ;
            for (int l = 0; l < list.maxHeight(); l++)
                same = same && splice.prev[l] == want.prev[l];
            if (!same && ++mismatches <= 3)
                ADD_FAILURE() << "finger diverged at key " << key;
            finger = splice;

            // As a merge does: skip a version a newer one already
            // shadows, else link it below its newer versions and unlink
            // the versions it shadows.
            bool shadowed = false;
            for (SkipList::Node *v = succ; v != nullptr &&
                                           v->key() == Slice(key) &&
                                           v->seq > s;
                 v = v->next(0)) {
                shadowed = shadowed || v->seq <= keep_seq;
            }
            if (shadowed)
                continue;
            SkipList::Node *n = SkipList::makeNode(
                &node_arena, Slice(key), s, EntryType::kValue, Slice("n"),
                list.randomHeight());
            ASSERT_NE(n, nullptr);
            miodb::advanceSpliceOverNewer(Slice(key), s, &splice, succ);
            list.linkNode(n, &splice);
            SkipList::Node *first_same = (succ != nullptr &&
                                          succ->key() == Slice(key) &&
                                          succ->seq > s)
                                             ? succ
                                             : n;
            auto drop = miodb::shadowedVersions(first_same, Slice(key),
                                                keep_seq);
            miodb::unlinkShadowed(&list, Slice(key), &splice, drop);
        }
        EXPECT_EQ(mismatches, 0);

        // The merged list is still in internal order.
        SkipList::Iterator it(&list);
        it.seekToFirst();
        uint64_t count = 0;
        std::string prev_key;
        uint64_t prev_seq = 0;
        for (; it.valid(); it.next(), count++) {
            if (count > 0) {
                ASSERT_TRUE(SkipList::entryBefore(Slice(prev_key), prev_seq,
                                                  it.key(), it.seq()));
            }
            prev_key = it.key().toString();
            prev_seq = it.seq();
        }
        EXPECT_EQ(count, list.entryCount());
    }
}

TEST(SkipListTest, FingerSearchCostFollowsTheGap)
{
    // New nodes merged after every `gap`-th old node: each finger
    // search crosses `gap` old nodes.
    for (int gap : {1, 10, 100}) {
        SCOPED_TRACE(gap);
        constexpr int kOld = 100000;
        Arena arena(kOld * 160);
        SkipList list(&arena, 17);
        const int stride = gap;
        uint64_t seq = 1;
        for (int i = 0; i < kOld; i++) {
            ASSERT_TRUE(list.insert(Slice(makeKey(i)), seq++,
                                    EntryType::kValue, Slice("o")));
        }
        const int kNew = kOld / stride;
        Arena node_arena(kNew * 160 + 4096);
        SkipList::Splice finger = list.headSplice();
        int64_t compared = 0;
        int64_t head_compared = 0;
        for (int j = 0; j < kNew; j++) {
            // Key "<i>+" sorts right after old key i.
            std::string key = makeKey(j * stride) + "+";
            head_compared += headCompares(list, Slice(key));
            int c = 0;
            SkipList::Splice splice = finger;
            list.findGreaterOrEqualFrom(Slice(key), &splice, &c);
            compared += c;
            finger = splice;
            list.linkNode(SkipList::makeNode(&node_arena, Slice(key), seq++,
                                             EntryType::kValue, Slice("n"),
                                             list.randomHeight()),
                          &splice);
        }
        const double mean = static_cast<double>(compared) / kNew;
        const double head_mean =
            static_cast<double>(head_compared) / kNew;
        std::printf("gap %d: finger %.1f, head %.1f compares per search\n",
                    gap, mean, head_mean);
        if (gap == 1) {
            EXPECT_LE(mean, 8.0);
        }
        EXPECT_LT(mean, head_mean);
    }
}

TEST(SkipListTest, FarFingerCostsAtMostAHeadDescentPlusTheClimb)
{
    constexpr int kNodes = 100000;
    Arena arena(kNodes * 160);
    SkipList list(&arena, 29);
    for (int i = 0; i < kNodes; i++) {
        ASSERT_TRUE(list.insert(Slice(makeKey(2 * i)), i + 1,
                                EntryType::kValue, Slice("v")));
    }
    Random rnd(5);
    for (int trial = 0; trial < 2000; trial++) {
        const uint64_t from = rnd.uniform(2 * kNodes);
        const uint64_t to = from + rnd.uniform(2 * kNodes - from + 2);
        SkipList::Splice finger;
        list.findGreaterOrEqual(Slice(makeKey(from)), &finger);
        SkipList::Splice want;
        SkipList::Node *want_succ =
            list.findGreaterOrEqual(Slice(makeKey(to)), &want);
        int compared = 0;
        SkipList::Node *succ = list.findGreaterOrEqualFrom(
            Slice(makeKey(to)), &finger, &compared);
        ASSERT_EQ(succ, want_succ) << from << " -> " << to;
        for (int l = 0; l < list.maxHeight(); l++)
            ASSERT_EQ(finger.prev[l], want.prev[l]) << l;
        ASSERT_LE(compared,
                  headCompares(list, Slice(makeKey(to))) + list.maxHeight())
            << from << " -> " << to;
    }
}

} // namespace
} // namespace mio
