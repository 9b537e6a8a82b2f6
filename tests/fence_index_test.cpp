/**
 * @file
 * DRAM fence index (DESIGN.md Sec. 5d): the fence a one-piece flush
 * builds in DRAM, and the one a node-by-node flush or copying merge
 * picks as it writes, must equal the one a charged stride walk of the
 * NVM list finds, a zero-copy merge's must equal the union of its inputs'
 * fences minus the nodes it unlinked, every entry must name a linked
 * node, and a fence walk must answer exactly what the plain descent
 * answers; the stale-hit race of a
 * probe through a pre-merge manifest; fence loss and rebuild across a
 * reopen; and an equivalence battery against a reference model while
 * flushes, zero-copy merges, migrations, value-log GC and pinned
 * snapshots run concurrently, followed by a key-for-key comparison
 * of both paths on every table left resident.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "lsm/memtable.h"
#include "miodb/fence_index.h"
#include "miodb/miodb.h"
#include "miodb/one_piece_flush.h"
#include "miodb/zero_copy_merge.h"
#include "sstable/internal_key.h"
#include "util/random.h"

namespace mio::miodb {

/** Reads a fence's private entries (declared a friend there). */
struct FenceIndexTestPeer {
    static Slice
    key(const FenceIndex &f, size_t i)
    {
        return f.keyAt(f.entries_[i]);
    }
    static uint64_t
    seq(const FenceIndex &f, size_t i)
    {
        return f.entries_[i].seq;
    }
    static const SkipList::Node *
    node(const FenceIndex &f, size_t i)
    {
        return f.entries_[i].node;
    }
};

namespace {

using Peer = FenceIndexTestPeer;

/** Probe keys around every stored key (hits, gaps, both ends). */
std::vector<std::string>
probeKeys(int n)
{
    std::vector<std::string> keys = {"", "~"};
    for (int i = 0; i <= 2 * n + 1; i++)
        keys.push_back(makeKey(i));
    return keys;
}

/** One fence entry as plain values, for independent recomputation. */
struct FenceEntry {
    std::string key;
    uint64_t seq;
    const SkipList::Node *node;

    bool
    operator==(const FenceEntry &o) const
    {
        return key == o.key && seq == o.seq && node == o.node;
    }
};

std::vector<FenceEntry>
entriesOf(const FenceIndex &fence)
{
    std::vector<FenceEntry> out;
    for (size_t i = 0; i < fence.size(); i++)
        out.push_back({Peer::key(fence, i).toString(), Peer::seq(fence, i),
                       Peer::node(fence, i)});
    return out;
}

/** The list's linked level-0 nodes, in list order. */
std::vector<const SkipList::Node *>
linkedNodes(const PMTable &table)
{
    std::vector<const SkipList::Node *> nodes;
    for (const SkipList::Node *n = table.list().head()->next(0);
         n != nullptr; n = n->next(0)) {
        nodes.push_back(n);
    }
    return nodes;
}

/**
 * @p fence is sound for @p table: every entry's (key, seq) is its
 * node's, every node is linked, in list order, and the fence walk
 * answers exactly what the plain descent answers on every probe key.
 * @p max_avg_hops (0: unchecked) bounds the mean fence walk length.
 */
void
expectFenceSound(const PMTable &table, const FenceIndex &fence, int n,
                 double max_avg_hops = 0)
{
    const auto linked = linkedNodes(table);
    size_t pos = 0;  // fence entries must appear in list order
    for (size_t i = 0; i < fence.size(); i++) {
        const SkipList::Node *node = Peer::node(fence, i);
        ASSERT_EQ(Peer::key(fence, i), node->key()) << i;
        ASSERT_EQ(Peer::seq(fence, i), node->seq) << i;
        while (pos < linked.size() && linked[pos] != node)
            pos++;
        ASSERT_LT(pos, linked.size()) << "entry " << i
                                      << " not linked or out of order";
        pos++;
    }
    uint64_t hops_total = 0;
    uint64_t probes = 0;
    for (const std::string &k : probeKeys(n)) {
        const Slice key(k);
        std::string v1, v2;
        EntryType t1 = EntryType::kValue, t2 = EntryType::kValue;
        uint64_t s1 = 0, s2 = 0;
        bool c1 = false, c2 = false;
        int hops = 0;
        const bool f1 = table.list().get(key, &v1, &t1, &s1, true, &c1);
        const bool f2 = table.list().getFrom(fence.floor(key), key, &v2,
                                             &t2, &s2, true, &c2, &hops);
        ASSERT_EQ(f1, f2) << k;
        ASSERT_FALSE(c1 || c2) << k;
        if (f1) {
            EXPECT_EQ(v1, v2) << k;
            EXPECT_EQ(t1, t2) << k;
            EXPECT_EQ(s1, s2) << k;
        }
        hops_total += hops;
        probes++;
    }
    if (max_avg_hops > 0) {
        EXPECT_LT(static_cast<double>(hops_total) / probes, max_avg_hops);
    }
}

/** Keys makeKey(2i) for i in [0, n); every third has three versions. */
std::shared_ptr<PMTable>
buildTable(sim::NvmDevice *nvm, StatsCounters *stats, int n, int stride,
           uint64_t seq_base, uint64_t table_id)
{
    lsm::MemTable mem(4 << 20, table_id * 13 + 5);
    uint64_t seq = seq_base;
    for (int i = 0; i < n; i += stride) {
        const std::string k = makeKey(2 * i);
        const int versions = (i % 3 == 0) ? 3 : 1;
        for (int v = 0; v < versions; v++) {
            const uint64_t s = seq++;
            EXPECT_TRUE(mem.add(Slice(k), s, EntryType::kValue,
                                Slice(k + "@" + std::to_string(s))));
        }
    }
    return onePieceFlush(&mem, nvm, stats, 16, table_id);
}

TEST(FenceIndexTest, FlushFenceMatchesWalkAndDescent)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    const int n = 3000;
    auto table = buildTable(&nvm, &stats, n, 1, 1, 1);
    auto fence = table->fence();
    ASSERT_NE(fence, nullptr);
    // Every kFenceStride-th node, counted from the head: exactly the
    // fence a fresh charged walk of the NVM list builds.
    EXPECT_EQ(fence->size(), table->entryCount() / kFenceStride);
    auto walked = FenceIndex::fromNvmList(table->list(), &nvm);
    EXPECT_EQ(entriesOf(*fence), entriesOf(*walked));
    const auto linked = linkedNodes(*table);
    for (size_t i = 0; i < fence->size(); i++)
        ASSERT_EQ(Peer::node(*fence, i), linked[(i + 1) * kFenceStride - 1])
            << i;
    // Evenly spaced gaps of four nodes: a walk averages about 3.5
    // nodes, where geometric gaps of the same mean would average 5.
    expectFenceSound(*table, *fence, n, 4.0);
}

TEST(FenceIndexTest, WrittenOutputsGetStrideFencesWithoutReads)
{
    // Node-by-node flush and copying merge link their output in list
    // order and pick its fence as they go: the same entries a fresh
    // stride walk finds, without reading NVM back.
    sim::NvmDevice nvm;
    StatsCounters stats;
    const int n = 2000;
    lsm::MemTable mem(4 << 20, 9);
    for (int i = 0; i < n; i++) {
        const std::string k = makeKey(2 * i);
        ASSERT_TRUE(mem.add(Slice(k), i + 1, EntryType::kValue, Slice(k)));
    }
    uint64_t before = nvm.meters().bytes_read;
    auto flushed = nodeByNodeFlush(&mem, &nvm, &stats, 16, 3);
    ASSERT_NE(flushed, nullptr);
    EXPECT_EQ(nvm.meters().bytes_read, before);
    ASSERT_NE(flushed->fence(), nullptr);
    EXPECT_EQ(entriesOf(*flushed->fence()),
              entriesOf(*FenceIndex::fromNvmList(flushed->list(), &nvm)));
    expectFenceSound(*flushed, *flushed->fence(), n, 4.0);

    auto newer = buildTable(&nvm, &stats, n, 2, 10000, 4);
    before = nvm.meters().bytes_read;
    auto merged = copyingMerge(newer, flushed, &nvm, &stats, 5);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(nvm.meters().bytes_read, before);
    ASSERT_NE(merged->fence(), nullptr);
    EXPECT_EQ(entriesOf(*merged->fence()),
              entriesOf(*FenceIndex::fromNvmList(merged->list(), &nvm)));
    expectFenceSound(*merged, *merged->fence(), n, 4.0);
}

TEST(FenceIndexTest, FenceSearchReadsNoNvm)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto table = buildTable(&nvm, &stats, 1000, 1, 1, 1);
    auto fence = table->fence();
    ASSERT_NE(fence, nullptr);
    // The flush builds the fence from DRAM, and floor() compares DRAM
    // copies: neither may charge a media read.
    const uint64_t before = nvm.meters().bytes_read;
    for (const std::string &k : probeKeys(1000))
        (void)fence->floor(Slice(k));
    EXPECT_EQ(nvm.meters().bytes_read, before);
}

TEST(FenceIndexTest, ZeroCopyMergeFenceIsUnionMinusUnlinked)
{
    // keep_seq = max drops every shadowed version; a low bound keeps
    // them (a pinned snapshot), so the unlink set differs.
    for (uint64_t keep_seq : {kMaxSequence, uint64_t{5000}}) {
        sim::NvmDevice nvm;
        StatsCounters stats;
        const int n = 2000;
        auto op = std::make_shared<MergeOp>();
        op->oldt = buildTable(&nvm, &stats, n, 1, 1, 1);
        op->newt = buildTable(&nvm, &stats, n, 2, 10000, 2);
        std::vector<FenceEntry> inputs = entriesOf(*op->oldt->fence());
        for (const FenceEntry &e : entriesOf(*op->newt->fence()))
            inputs.push_back(e);
        ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats, nullptr,
                                  keep_seq));
        auto fence = op->oldt->fence();
        ASSERT_NE(fence, nullptr) << keep_seq;

        // Both inputs' entries that are still linked, in internal-key
        // order (key asc, seq desc).
        const auto linked = linkedNodes(*op->oldt);
        const std::set<const SkipList::Node *> alive(linked.begin(),
                                                    linked.end());
        std::vector<FenceEntry> expect;
        for (const FenceEntry &e : inputs) {
            if (alive.count(e.node) != 0)
                expect.push_back(e);
        }
        std::sort(expect.begin(), expect.end(),
                  [](const FenceEntry &a, const FenceEntry &b) {
                      return a.key != b.key ? a.key < b.key : a.seq > b.seq;
                  });
        // The merge did unlink fence nodes, so the subtraction is
        // exercised.
        EXPECT_LT(expect.size(), inputs.size()) << keep_seq;
        EXPECT_EQ(entriesOf(*fence), expect) << keep_seq;
        expectFenceSound(*op->oldt, *fence, n, 5.0);
    }
}

TEST(FenceIndexTest, MergeOfUnfencedInputLeavesNone)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    auto op = std::make_shared<MergeOp>();
    op->oldt = buildTable(&nvm, &stats, 500, 1, 1, 1);
    op->newt = buildTable(&nvm, &stats, 500, 2, 10000, 2);
    op->newt->setFence(nullptr);
    ASSERT_TRUE(zeroCopyMerge(op.get(), &nvm, &stats));
    // The pre-merge oldtable fence no longer describes the list.
    EXPECT_EQ(op->oldt->fence(), nullptr);
}

// ---------------------------------------------------------------------
// Stale hit through a pre-merge manifest
// ---------------------------------------------------------------------

TEST(StaleHitTest, HitThroughPreMergeManifestRetries)
{
    // Level 0 holds an older table with k=old and a newer one with
    // k=new. A get loads the level's manifest; before it probes, a
    // merge claims the pair and pauses with k=new detached from the
    // newtable and held only in the insertion mark. Probing the
    // pre-merge manifest then misses the newtable and hits k=old in
    // the oldtable -- the get must notice the republished manifest
    // and retry through the merge protocol instead of answering old.
    sim::NvmDevice nvm;
    StatsCounters build_stats;
    MioOptions o;
    o.auto_compaction = false;
    o.enable_wal = false;
    o.elastic_levels = 2;
    MioDB db(o, &nvm);

    lsm::MemTable old_mem(1 << 16, 1);
    ASSERT_TRUE(old_mem.add(Slice("a"), 1, EntryType::kValue, Slice("a")));
    ASSERT_TRUE(
        old_mem.add(Slice("k"), 2, EntryType::kValue, Slice("k-old")));
    lsm::MemTable new_mem(1 << 16, 2);
    ASSERT_TRUE(
        new_mem.add(Slice("k"), 10, EntryType::kValue, Slice("k-new")));
    ASSERT_TRUE(new_mem.add(Slice("z"), 11, EntryType::kValue, Slice("z")));
    BufferLevel &l0 = db.levels().level(0);
    l0.push(onePieceFlush(&old_mem, &nvm, &build_stats, 16, 1));
    l0.push(onePieceFlush(&new_mem, &nvm, &build_stats, 16, 2));

    std::shared_ptr<MergeOp> op;
    db.setManifestProbeHookForTesting([&](int level) {
        if (level != 0 || op != nullptr)
            return;
        op = l0.beginMerge();
        ASSERT_NE(op, nullptr);
        // Pause right after the first node ("k") left the newtable.
        EXPECT_FALSE(zeroCopyMerge(op.get(), &nvm, &build_stats,
                                   [](uint64_t) { return false; }));
    });
    const uint64_t retries_before = db.stats().read_retries.load();
    std::string v;
    ASSERT_TRUE(db.get(Slice("k"), &v).isOk());
    EXPECT_EQ(v, "k-new");
    EXPECT_GT(db.stats().read_retries.load(), retries_before);
    db.setManifestProbeHookForTesting(nullptr);

    ASSERT_NE(op, nullptr);
    ASSERT_TRUE(resumeZeroCopyMerge(op.get(), &nvm, &build_stats));
    db.levels().level(1).push(op->oldt);
    l0.finishMerge(op);
    ASSERT_TRUE(db.get(Slice("k"), &v).isOk());
    EXPECT_EQ(v, "k-new");
}

// ---------------------------------------------------------------------
// Reopen: fences are DRAM, dropped at adoption and rebuilt off the
// open path
// ---------------------------------------------------------------------

MioOptions
rebuildOptions(bool deterministic)
{
    MioOptions o;
    o.memtable_size = 16 << 10;
    o.elastic_levels = 8;  // the cascade can't drain: tables stay
    o.value_separation_threshold = 0;
    o.deterministic_background = deterministic;
    return o;
}

/** Overwrite keys [0, n) a few times; returns the final values. */
std::map<std::string, std::string>
loadVersions(MioDB *db, int n)
{
    std::map<std::string, std::string> model;
    Random rng(7);
    for (int round = 0; round < 3; round++) {
        for (int i = 0; i < n; i++) {
            const std::string k = makeKey(rng.uniform(n));
            const std::string v =
                k + "#" + std::to_string(round) + "-" + std::to_string(i);
            EXPECT_TRUE(db->put(Slice(k), Slice(v)).isOk());
            model[k] = v;
        }
    }
    db->waitIdle();
    return model;
}

void
expectAnswers(MioDB *db, const std::map<std::string, std::string> &model,
              int n)
{
    std::string v;
    for (int i = 0; i < n; i++) {
        const std::string k = makeKey(i);
        auto it = model.find(k);
        Status s = db->get(Slice(k), &v);
        if (it == model.end()) {
            EXPECT_TRUE(s.isNotFound()) << k;
        } else {
            ASSERT_TRUE(s.isOk()) << k;
            EXPECT_EQ(v, it->second) << k;
        }
    }
}

size_t
countFences(MioDB *db, size_t *tables)
{
    size_t fenced = 0;
    *tables = 0;
    for (int i = 0; i < db->levels().numLevels(); i++) {
        auto m = db->levels().level(i).manifestSnapshot();
        for (const auto &ref : m->tables) {
            (*tables)++;
            if (ref.fence != nullptr)
                fenced++;
        }
    }
    return fenced;
}

TEST(FenceRebuildTest, AnswersIdenticalBeforeAndAfterRebuild)
{
    const int n = 1500;
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    std::map<std::string, std::string> model;
    {
        MioDB db(rebuildOptions(true), &nvm, nullptr, &registry);
        state = db.nvmState();
        model = loadVersions(&db, n);
        size_t tables = 0;
        ASSERT_GT(countFences(&db, &tables), 0u);
        ASSERT_EQ(countFences(&db, &tables), tables);
        expectAnswers(&db, model, n);
        EXPECT_GT(db.stats().fence_probes.load(), 0u);
        EXPECT_GT(db.stats().fence_bytes.load(), 0u);
        db.simulateCrash();
    }
    // Deterministic background: the rebuild job stays queued until
    // the first wait, so this is the store as open() leaves it.
    MioDB db(rebuildOptions(true), &nvm, nullptr, &registry, state);
    size_t tables = 0;
    EXPECT_EQ(countFences(&db, &tables), 0u);
    ASSERT_GT(tables, 0u);
    EXPECT_EQ(db.stats().fence_bytes.load(), 0u);
    expectAnswers(&db, model, n);
    EXPECT_EQ(db.stats().fence_probes.load(), 0u);  // plain descent

    db.waitIdle();  // runs the rebuild job
    EXPECT_EQ(countFences(&db, &tables), tables);
    EXPECT_GT(db.stats().fence_bytes.load(), 0u);
    expectAnswers(&db, model, n);
    EXPECT_GT(db.stats().fence_probes.load(), 0u);
}

TEST(FenceRebuildTest, ReadersDuringThreadedRebuild)
{
    const int n = 1500;
    sim::NvmDevice nvm;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    std::map<std::string, std::string> model;
    {
        MioDB db(rebuildOptions(false), &nvm, nullptr, &registry);
        state = db.nvmState();
        model = loadVersions(&db, n);
        db.simulateCrash();
    }
    MioDB db(rebuildOptions(false), &nvm, nullptr, &registry, state);
    std::atomic<bool> stop{false};
    std::atomic<int> passes{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; r++) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                expectAnswers(&db, model, n);
                passes.fetch_add(1);
            }
        });
    }
    size_t tables = 0;
    while (countFences(&db, &tables) < tables)
        std::this_thread::yield();
    const int after_rebuild = passes.load() + 2;
    while (passes.load() < after_rebuild)
        std::this_thread::yield();
    stop.store(true);
    for (auto &t : readers)
        t.join();
    EXPECT_GT(db.stats().fence_probes.load(), 0u);
}

// ---------------------------------------------------------------------
// Equivalence battery: fence path vs plain descent under concurrent
// flush, zero-copy merge, migration, vlog GC and pinned snapshots
// ---------------------------------------------------------------------

constexpr int kKeys = 400;

std::string
versionedValue(int key, uint64_t version)
{
    char buf[32];
    snprintf(buf, sizeof(buf), "%06d:%010llu:", key,
             static_cast<unsigned long long>(version));
    // Every other version is long enough to be separated into the
    // value log, so GC relocations run beside inline values.
    return std::string(buf) +
           std::string(version % 2 == 0 ? 120 : 8, 'a' + key % 26);
}

uint64_t
versionOf(const std::string &v)
{
    return std::stoull(v.substr(7, 10));
}

TEST(FenceEquivalenceTest, ConcurrentMaintenanceMatchesModel)
{
    sim::NvmDevice nvm;
    MioOptions o;
    o.memtable_size = 16 << 10;
    o.elastic_levels = 3;
    o.value_separation_threshold = 64;
    o.vlog_segment_bytes = 32 << 10;
    MioDB db(o, &nvm);

    // issued[k] is bumped before a put of k starts, acked[k] after it
    // returns; any read of k overlapping neither must land between.
    std::vector<std::atomic<uint64_t>> issued(kKeys), acked(kKeys);
    for (int k = 0; k < kKeys; k++) {
        issued[k].store(1);
        ASSERT_TRUE(
            db.put(Slice(makeKey(k)), Slice(versionedValue(k, 1))).isOk());
        acked[k].store(1);
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> failures{0};
    auto check = [&](int k, const std::string &v, uint64_t lo,
                     const char *what) {
        const uint64_t got = versionOf(v);
        const uint64_t hi = issued[k].load();
        if (got < lo || got > hi) {
            if (failures.fetch_add(1) < 5) {
                ADD_FAILURE() << what << " key " << k << " version "
                              << got << " outside [" << lo << ", " << hi
                              << "]";
            }
        }
    };

    std::thread writer([&] {
        Random rng(11);
        for (int i = 0; i < 6000; i++) {
            const int k = static_cast<int>(rng.uniform(kKeys));
            const uint64_t ver = issued[k].load() + 1;
            issued[k].store(ver);
            if (!db.put(Slice(makeKey(k)), Slice(versionedValue(k, ver)))
                     .isOk()) {
                failures.fetch_add(1);
            }
            acked[k].store(ver);
        }
        stop.store(true);
    });
    std::thread reader([&] {
        Random rng(12);
        std::string v;
        while (!stop.load()) {
            const int k = static_cast<int>(rng.uniform(kKeys));
            const uint64_t lo = acked[k].load();
            if (!db.get(Slice(makeKey(k)), &v).isOk()) {
                failures.fetch_add(1);
                continue;
            }
            check(k, v, lo, "get");
        }
    });
    std::thread snapshotter([&] {
        std::vector<std::pair<std::string, std::string>> rows;
        std::vector<uint64_t> lo(kKeys);
        while (!stop.load()) {
            for (int k = 0; k < kKeys; k++)
                lo[k] = acked[k].load();
            Snapshot *snap = db.getSnapshot();
            // Let merges and GC run under the pin before reading.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            rows.clear();
            if (!db.scanAt(snap, Slice(makeKey(0)), kKeys, &rows).isOk() ||
                rows.size() != static_cast<size_t>(kKeys)) {
                failures.fetch_add(1);
            } else {
                for (int k = 0; k < kKeys; k++)
                    check(k, rows[k].second, lo[k], "snapshot scan");
            }
            db.releaseSnapshot(snap);
        }
    });
    writer.join();
    reader.join();
    snapshotter.join();
    EXPECT_EQ(failures.load(), 0u);

    db.waitIdle();
    std::string v;
    for (int k = 0; k < kKeys; k++) {
        ASSERT_TRUE(db.get(Slice(makeKey(k)), &v).isOk()) << k;
        EXPECT_EQ(versionOf(v), acked[k].load()) << k;
    }
    // Quiescent now, so the resident tables are not relinked: the
    // fence walk and the plain descent must agree key for key. A fence
    // built by repeated union merges must also keep at least three
    // quarters of a stride walk's density (one entry per kFenceStride
    // nodes; 0.88-1.01 over 600 runs, the partial stride at each
    // input's end costing the rest) and a short walk: its gaps drift
    // toward random ones as merges unlink old fence nodes, and the
    // mean walk peaked at 6.03 over 900 runs, where an empty fence
    // walks half the list.
    size_t compared = 0;
    for (int i = 0; i < db.levels().numLevels(); i++) {
        auto m = db.levels().level(i).manifestSnapshot();
        for (const auto &ref : m->tables) {
            ASSERT_NE(ref.fence, nullptr);
            const size_t linked = linkedNodes(*ref.table).size();
            EXPECT_GT((ref.fence->size() + 1) * kFenceStride * 4,
                      linked * 3)
                << "fence " << ref.fence->size() << ", linked " << linked;
            expectFenceSound(*ref.table, *ref.fence, kKeys, 8.0);
            compared++;
        }
    }
    EXPECT_GT(compared, 0u);
    // The battery only means something if every path actually ran.
    const StatsSnapshot s = snapshotOf(db.stats());
    EXPECT_GT(s.fence_probes, 0u);
    EXPECT_GT(s.flush_count, 0u);
    EXPECT_GT(s.zero_copy_merges, 0u);
    EXPECT_GT(s.lazy_copy_merges, 0u);
    EXPECT_GT(s.vlog_gc_passes, 0u);
}

} // namespace
} // namespace mio::miodb
