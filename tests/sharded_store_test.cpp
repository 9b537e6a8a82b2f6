/** @file Horizontal-sharding tests (DESIGN.md Sec. 5g): hash routing,
 *  per-shard batch atomicity, merged scans, aggregated stats, and
 *  machine-wide crash recovery for ShardedMioDB. The concurrent-writer
 *  case runs under TSan in scripts/check.sh. */
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/store_factory.h"
#include "shard/shard_router.h"
#include "shard/sharded_miodb.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::shard {
namespace {

miodb::MioOptions
shardOptions()
{
    miodb::MioOptions o;
    o.memtable_size = 32 << 10;
    o.elastic_levels = 3;
    return o;
}

class ShardedStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        sim::FailpointRegistry::instance().disarmAll();
    }
    void TearDown() override
    {
        sim::FailpointRegistry::instance().disarmAll();
    }
};

TEST_F(ShardedStoreTest, RouterIsDeterministicAndBalanced)
{
    ShardRouter a(4), b(4);
    std::vector<int> hits(4, 0);
    for (int i = 0; i < 4000; i++) {
        std::string key = makeKey(i);
        int s = a.shardOf(Slice(key));
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 4);
        // Pure function of (key, shard count): a second router and a
        // second call agree -- routing survives process restarts.
        EXPECT_EQ(s, b.shardOf(Slice(key)));
        EXPECT_EQ(s, a.shardOf(Slice(key)));
        hits[s]++;
    }
    // FNV-1a spreads sequential keys: no shard starves or hogs.
    for (int s = 0; s < 4; s++) {
        EXPECT_GT(hits[s], 4000 / 4 / 2) << "shard " << s;
        EXPECT_LT(hits[s], 4000 / 4 * 2) << "shard " << s;
    }
}

TEST_F(ShardedStoreTest, PointOpsRouteToOwningShard)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 4, &nvm);
    for (int i = 0; i < 200; i++)
        ASSERT_TRUE(
            db.put(Slice(makeKey(i)), Slice("v" + std::to_string(i)))
                .isOk());

    std::string v;
    for (int i = 0; i < 200; i++) {
        std::string key = makeKey(i);
        // The facade finds it...
        ASSERT_TRUE(db.get(Slice(key), &v).isOk()) << i;
        EXPECT_EQ(v, "v" + std::to_string(i));
        // ...and it lives on exactly the shard the router names.
        int owner = db.router().shardOf(Slice(key));
        EXPECT_TRUE(db.mioShard(owner).get(Slice(key), &v).isOk());
        for (int s = 0; s < 4; s++) {
            if (s != owner) {
                EXPECT_TRUE(
                    db.mioShard(s).get(Slice(key), &v).isNotFound())
                    << "key " << i << " leaked to shard " << s;
            }
        }
    }

    // Removes route the same way.
    ASSERT_TRUE(db.remove(Slice(makeKey(7))).isOk());
    EXPECT_TRUE(db.get(Slice(makeKey(7)), &v).isNotFound());
}

TEST_F(ShardedStoreTest, SingleShardRoutesEverythingToShardZero)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 1, &nvm);
    for (int i = 0; i < 50; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("v")).isOk());
    std::string v;
    for (int i = 0; i < 50; i++)
        EXPECT_TRUE(db.mioShard(0).get(Slice(makeKey(i)), &v).isOk());
}

TEST_F(ShardedStoreTest, BatchSplitsAndCommitsEveryShardSlice)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 4, &nvm);
    WriteBatch batch;
    for (int i = 0; i < 100; i++)
        batch.put(Slice(makeKey(i)), Slice("b" + std::to_string(i)));
    batch.remove(Slice(makeKey(3)));
    ASSERT_TRUE(db.write(batch).isOk());

    std::string v;
    for (int i = 0; i < 100; i++) {
        if (i == 3) {
            EXPECT_TRUE(db.get(Slice(makeKey(i)), &v).isNotFound());
            continue;
        }
        ASSERT_TRUE(db.get(Slice(makeKey(i)), &v).isOk()) << i;
        EXPECT_EQ(v, "b" + std::to_string(i));
    }
}

TEST_F(ShardedStoreTest, CrashMidBatchIsAtomicPerShard)
{
    // The facade commits one sub-batch per shard; a crash between
    // sub-batch commits may land different shards' slices on opposite
    // sides of the failure, but each slice itself is all-or-nothing
    // (one WAL record per shard). Arm the SECOND group commit so the
    // first sub-batch is durable and a later one dies pre-WAL.
    sim::NvmDevice nvm;
    auto state = std::make_shared<ShardSetState>();
    std::vector<std::string> keys;
    {
        ShardedMioDB db(shardOptions(), 4, &nvm, nullptr, nullptr);
        state = db.shardSetState();
        WriteBatch batch;
        for (int i = 0; i < 64; i++) {
            keys.push_back(makeKey(i));
            batch.put(Slice(keys.back()), Slice("slice"));
        }
        sim::FailpointRegistry::instance().armCrash(
            "group.before_wal", 2);
        EXPECT_FALSE(db.write(batch).isOk());
        EXPECT_TRUE(db.hasCrashed());
    }
    sim::FailpointRegistry::instance().disarmAll();

    ShardedMioDB db2(shardOptions(), 4, &nvm, nullptr, state);
    std::string v;
    int full = 0, empty = 0;
    for (int s = 0; s < 4; s++) {
        int present = 0, total = 0;
        for (const std::string &key : keys) {
            if (db2.router().shardOf(Slice(key)) != s)
                continue;
            total++;
            if (db2.get(Slice(key), &v).isOk())
                present++;
        }
        ASSERT_GT(total, 0) << "shard " << s << " got no slice";
        EXPECT_TRUE(present == 0 || present == total)
            << "shard " << s << " recovered a torn slice: " << present
            << "/" << total;
        if (present == total)
            full++;
        else if (present == 0)
            empty++;
    }
    // Hit 2 means exactly one sub-batch committed before the crash.
    EXPECT_EQ(full, 1);
    EXPECT_EQ(empty, 3);
}

TEST_F(ShardedStoreTest, MergedScanMatchesReferenceMap)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 4, &nvm);
    std::map<std::string, std::string> reference;
    Random rng(271828);
    for (int i = 0; i < 1500; i++) {
        std::string key = makeKey(rng.uniform(500));
        if (rng.uniform(10) == 0) {
            ASSERT_TRUE(db.remove(Slice(key)).isOk());
            reference.erase(key);
        } else {
            std::string value = "s" + std::to_string(i);
            ASSERT_TRUE(db.put(Slice(key), Slice(value)).isOk());
            reference[key] = value;
        }
    }
    db.waitIdle();  // answers must merge across DRAM and NVM levels

    for (uint64_t start : {0ull, 123ull, 456ull, 499ull}) {
        std::string start_key = makeKey(start);
        std::vector<std::pair<std::string, std::string>> got;
        ASSERT_TRUE(db.scan(Slice(start_key), 64, &got).isOk());

        std::vector<std::pair<std::string, std::string>> want;
        for (auto it = reference.lower_bound(start_key);
             it != reference.end() &&
             static_cast<int>(want.size()) < 64;
             ++it)
            want.push_back(*it);
        EXPECT_EQ(got, want) << "scan from " << start_key;
    }

    // A scan wider than the dataset drains every shard completely.
    std::vector<std::pair<std::string, std::string>> all;
    ASSERT_TRUE(db.scan(Slice(""), 10000, &all).isOk());
    EXPECT_EQ(all.size(), reference.size());
}

TEST_F(ShardedStoreTest, StatsAggregateAcrossShards)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 3, &nvm);
    std::string v;
    for (int i = 0; i < 300; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("v")).isOk());
    for (int i = 0; i < 40; i++)
        (void)db.get(Slice(makeKey(i)), &v);
    std::vector<std::pair<std::string, std::string>> out;
    ASSERT_TRUE(db.scan(Slice(""), 10, &out).isOk());
    ASSERT_TRUE(db.scan(Slice(""), 10, &out).isOk());
    db.waitIdle();

    const StatsCounters &agg = db.stats();
    EXPECT_EQ(agg.puts.load(), 300u);
    EXPECT_EQ(agg.gets.load(), 40u);
    // Facade-level scans, not the 3-per-call shard fan-out.
    EXPECT_EQ(agg.scans.load(), 2u);

    // The aggregate is the fieldwise shard sum (puts land on every
    // shard with 300 hash-routed keys).
    uint64_t put_sum = 0;
    for (int s = 0; s < 3; s++) {
        EXPECT_GT(db.mioShard(s).stats().puts.load(), 0u);
        put_sum += db.mioShard(s).stats().puts.load();
    }
    EXPECT_EQ(put_sum, 300u);
}

TEST_F(ShardedStoreTest, SnapshotScanSeesCrossShardBatchAllOrNothing)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 3, &nvm);
    // Keys chosen to span more than one shard (sanity-check routing).
    std::vector<std::string> keys;
    std::set<int> shards_hit;
    for (int i = 0; i < 12; i++) {
        keys.push_back("batch-" + makeKey(i));
        shards_hit.insert(db.router().shardOf(Slice(keys.back())));
    }
    ASSERT_GT(shards_hit.size(), 1u) << "keys all routed to one shard";

    for (int i = 0; i < 200; i++)
        ASSERT_TRUE(db.put(Slice("fill-" + makeKey(i)), Slice("f"))
                        .isOk());

    // Pin BEFORE the batch: the batch must be invisible in the pinned
    // view even after it commits and merges run.
    Snapshot *before = db.getSnapshot();
    WriteBatch batch;
    for (const auto &k : keys)
        batch.put(Slice(k), Slice("g1"));
    ASSERT_TRUE(db.write(batch).isOk());
    db.waitIdle();

    std::vector<std::pair<std::string, std::string>> out;
    ASSERT_TRUE(db.scanAt(before, Slice("batch-"), 100, &out).isOk());
    size_t batch_rows = 0;
    for (const auto &[k, v] : out)
        if (k.rfind("batch-", 0) == 0)
            batch_rows++;
    EXPECT_EQ(batch_rows, 0u) << "pre-batch snapshot saw batch keys";
    db.releaseSnapshot(before);

    // Pin AFTER: the whole batch is visible.
    Snapshot *after = db.getSnapshot();
    ASSERT_TRUE(db.scanAt(after, Slice("batch-"), 100, &out).isOk());
    batch_rows = 0;
    for (const auto &[k, v] : out) {
        if (k.rfind("batch-", 0) == 0) {
            batch_rows++;
            EXPECT_EQ(v, "g1");
        }
    }
    EXPECT_EQ(batch_rows, keys.size());
    db.releaseSnapshot(after);
}

TEST_F(ShardedStoreTest, MidScanBatchesNeverTearAcrossShards)
{
    // The racing version: a writer commits cross-shard batches that
    // overwrite the same 12 keys with one generation tag per batch;
    // a reader pins snapshots mid-stream. Capture excludes the
    // multi-shard write path (batch_snap_mu_), so every pinned view
    // must show all 12 keys at ONE generation -- a mix means a batch
    // tore across shards under the scan.
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 3, &nvm);
    std::vector<std::string> keys;
    for (int i = 0; i < 12; i++)
        keys.push_back("batch-" + makeKey(i));

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> committed{0};
    std::thread writer([&] {
        uint64_t gen = 1;
        while (!stop.load(std::memory_order_relaxed)) {
            WriteBatch batch;
            std::string tag = "g" + std::to_string(gen++);
            for (const auto &k : keys)
                batch.put(Slice(k), Slice(tag));
            ASSERT_TRUE(db.write(batch).isOk());
            committed.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<std::pair<std::string, std::string>> out;
    int checked = 0;
    while (checked < 300 || committed.load() < 1000) {
        Snapshot *snap = db.getSnapshot();
        ASSERT_TRUE(
            db.scanAt(snap, Slice("batch-"), 100, &out).isOk());
        db.releaseSnapshot(snap);
        std::set<std::string> gens;
        size_t batch_rows = 0;
        for (const auto &[k, v] : out) {
            if (k.rfind("batch-", 0) == 0) {
                batch_rows++;
                gens.insert(v);
            }
        }
        if (batch_rows > 0) {
            EXPECT_EQ(batch_rows, keys.size())
                << "snapshot saw a partial batch";
            EXPECT_EQ(gens.size(), 1u)
                << "snapshot mixed generations: batch tore";
            checked++;
        }
    }
    stop.store(true);
    writer.join();
    EXPECT_EQ(db.stats().snapshots_live.load(), 0u);
}

TEST_F(ShardedStoreTest, PerShardStatsSumToAggregate)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 3, &nvm);
    std::string v;
    Random rng(99);
    for (int i = 0; i < 500; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice("v")).isOk());
    for (int i = 0; i < 80; i++)
        (void)db.get(Slice(makeKey(rng.uniform(500))), &v);
    std::vector<std::pair<std::string, std::string>> out;
    Snapshot *snap = db.getSnapshot();
    ASSERT_TRUE(db.scanAt(snap, Slice(""), 50, &out).isOk());
    db.releaseSnapshot(snap);
    ASSERT_TRUE(db.scan(Slice(""), 50, &out).isOk());
    db.waitIdle();

    // Every per-shard counter must sum to the facade's aggregate
    // (scans excepted by design: the facade reports user-facing calls,
    // each of which fans out to N shard scans).
    const StatsSnapshot agg = snapshotOf(db.stats());
    StatsSnapshot sum;
    for (int s = 0; s < 3; s++) {
        const StatsSnapshot one = snapshotOf(db.mioShard(s).stats());
        sum.puts += one.puts;
        sum.gets += one.gets;
        sum.deletes += one.deletes;
        sum.flush_count += one.flush_count;
        sum.zero_copy_merges += one.zero_copy_merges;
        sum.lazy_copy_merges += one.lazy_copy_merges;
        sum.wal_bytes_written += one.wal_bytes_written;
        sum.snapshots_live += one.snapshots_live;
        sum.snapshots_pinned_manifests +=
            one.snapshots_pinned_manifests;
    }
    EXPECT_EQ(agg.puts, sum.puts);
    EXPECT_EQ(agg.puts, 500u);
    EXPECT_EQ(agg.gets, sum.gets);
    EXPECT_EQ(agg.deletes, sum.deletes);
    EXPECT_EQ(agg.flush_count, sum.flush_count);
    EXPECT_EQ(agg.zero_copy_merges, sum.zero_copy_merges);
    EXPECT_EQ(agg.lazy_copy_merges, sum.lazy_copy_merges);
    EXPECT_EQ(agg.wal_bytes_written, sum.wal_bytes_written);
    // All pins released: live gauges zero everywhere.
    EXPECT_EQ(agg.snapshots_live, 0u);
    EXPECT_EQ(sum.snapshots_live, 0u);
    EXPECT_EQ(sum.snapshots_pinned_manifests, 0u);
}

TEST_F(ShardedStoreTest, PowerFailureRecoversEveryShardFromWal)
{
    sim::NvmDevice nvm;
    std::shared_ptr<ShardSetState> state;
    {
        ShardedMioDB db(shardOptions(), 4, &nvm);
        state = db.shardSetState();
        for (int i = 0; i < 400; i++)
            ASSERT_TRUE(db.put(Slice(makeKey(i)),
                               Slice("c" + std::to_string(i)))
                            .isOk());
        db.simulateCrash();
        EXPECT_TRUE(db.hasCrashed());
        // Frozen stores fail fast instead of wedging.
        EXPECT_FALSE(db.put(Slice("late"), Slice("x")).isOk());
    }

    ShardedMioDB db2(shardOptions(), 4, &nvm, nullptr, state);
    std::string v;
    for (int i = 0; i < 400; i++) {
        ASSERT_TRUE(db2.get(Slice(makeKey(i)), &v).isOk()) << i;
        EXPECT_EQ(v, "c" + std::to_string(i));
    }
    EXPECT_TRUE(db2.get(Slice("late"), &v).isNotFound());
}

TEST_F(ShardedStoreTest, ShardCountMustMatchRecoveredState)
{
    sim::NvmDevice nvm;
    std::shared_ptr<ShardSetState> state;
    {
        ShardedMioDB db(shardOptions(), 4, &nvm);
        state = db.shardSetState();
        db.simulateCrash();
    }
    // Routing is a pure function of (key, N): reopening with a
    // different N would silently orphan keys, so it must refuse.
    EXPECT_THROW(ShardedMioDB(shardOptions(), 2, &nvm, nullptr, state),
                 std::invalid_argument);
    ShardedMioDB ok(shardOptions(), 4, &nvm, nullptr, state);
}

TEST_F(ShardedStoreTest, MidRunFailpointCrashLosesNoAcknowledgedWrite)
{
    // The crash-sweep shape: arm a foreground failpoint mid-workload,
    // record which puts were acknowledged, recover, and demand every
    // acknowledged write back. The failing shard freezes the whole
    // facade (machine-wide power failure), so un-acknowledged writes
    // after the crash fail fast.
    sim::NvmDevice nvm;
    std::shared_ptr<ShardSetState> state;
    std::vector<int> acked;
    {
        ShardedMioDB db(shardOptions(), 4, &nvm);
        state = db.shardSetState();
        sim::FailpointRegistry::instance().armCrash(
            "group.before_wal", 120);
        for (int i = 0; i < 400; i++) {
            if (db.put(Slice(makeKey(i)), Slice("f" + std::to_string(i)))
                    .isOk())
                acked.push_back(i);
        }
        EXPECT_TRUE(db.hasCrashed());
        EXPECT_LT(acked.size(), 400u);
    }
    sim::FailpointRegistry::instance().disarmAll();

    ShardedMioDB db2(shardOptions(), 4, &nvm, nullptr, state);
    std::string v;
    for (int i : acked) {
        ASSERT_TRUE(db2.get(Slice(makeKey(i)), &v).isOk())
            << "acknowledged put " << i << " lost";
        EXPECT_EQ(v, "f" + std::to_string(i));
    }
}

TEST_F(ShardedStoreTest, ParallelBuildUnwindsReplayCrash)
{
    // The reopen builds every shard concurrently on the shared pool,
    // each replaying its own WAL (and flushing on the pool as the
    // replay rotates MemTables). A power failure in the middle of any
    // shard's replay must unwind the whole facade -- the constructor
    // throws -- and leave every durable image intact for the next
    // open.
    miodb::MioOptions o = shardOptions();
    o.memtable_size = 8 << 10;
    o.elastic_levels = 2;
    o.value_separation_threshold = 16;
    o.vlog_segment_bytes = 4 << 10;
    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    std::shared_ptr<ShardSetState> state;
    std::map<std::string, std::string> model;
    std::set<std::string> keys;
    {
        ShardedMioDB db(o, 4, &nvm);
        state = db.shardSetState();
        Random rnd(0xD15C);
        for (int i = 0; i < 600; i++) {
            std::string key = makeKey(rnd.uniform(200));
            keys.insert(key);
            if (rnd.oneIn(6)) {
                ASSERT_TRUE(db.remove(Slice(key)).isOk());
                model.erase(key);
            } else {
                std::string val = "v" + std::to_string(i) + "-";
                rnd.fillString(&val, 24 + rnd.uniform(24));
                ASSERT_TRUE(db.put(Slice(key), Slice(val)).isOk());
                model[key] = val;
            }
        }
        db.simulateCrash();
    }
    nvm.discardUnpersisted();

    auto &fp = sim::FailpointRegistry::instance();
    fp.armCrash("wal.replay.frame", 20);
    bool threw = false;
    try {
        ShardedMioDB db(o, 4, &nvm, nullptr, state);
    } catch (const sim::SimCrash &crash) {
        threw = true;
        EXPECT_EQ(crash.point(), "wal.replay.frame");
    }
    EXPECT_TRUE(threw);
    fp.disarmAll();
    nvm.discardUnpersisted();

    ShardedMioDB db2(o, 4, &nvm, nullptr, state);
    std::string v;
    for (const auto &key : keys) {
        Status st = db2.get(Slice(key), &v);
        auto it = model.find(key);
        if (it == model.end()) {
            EXPECT_TRUE(st.isNotFound()) << key;
        } else {
            ASSERT_TRUE(st.isOk()) << key << ": " << st.toString();
            EXPECT_EQ(v, it->second) << key;
        }
    }
}

TEST_F(ShardedStoreTest, ConcurrentWritersAcrossShards)
{
    sim::NvmDevice nvm;
    ShardedMioDB db(shardOptions(), 4, &nvm);
    constexpr int kWriters = 4;
    constexpr int kOps = 300;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
        writers.emplace_back([&, w] {
            std::string v;
            for (int i = 0; i < kOps; i++) {
                std::string key = makeKey(w * 100000 + i);
                ASSERT_TRUE(
                    db.put(Slice(key),
                           Slice("w" + std::to_string(w) + "-" +
                                 std::to_string(i)))
                        .isOk());
                if (i % 7 == 0)
                    (void)db.get(Slice(key), &v);
            }
        });
    }
    for (auto &t : writers)
        t.join();
    db.waitIdle();

    std::string v;
    for (int w = 0; w < kWriters; w++) {
        for (int i = 0; i < kOps; i++) {
            ASSERT_TRUE(
                db.get(Slice(makeKey(w * 100000 + i)), &v).isOk())
                << "w" << w << " i" << i;
            EXPECT_EQ(v, "w" + std::to_string(w) + "-" +
                             std::to_string(i));
        }
    }
    EXPECT_EQ(db.stats().puts.load(),
              static_cast<uint64_t>(kWriters) * kOps);
}

TEST_F(ShardedStoreTest, FactoryBuildsShardedStores)
{
    // --shards routes through the facade for MioDB and baselines
    // alike; shards=1 must stay the plain unsharded store.
    bench::BenchConfig config;
    config.dataset_bytes = 1 << 20;
    config.perf_model = false;

    config.store = "miodb";
    config.shards = 3;
    {
        bench::StoreBundle bundle = bench::makeStore(config);
        EXPECT_NE(bundle.store->name().find("x3"), std::string::npos);
        ASSERT_TRUE(bundle.store->put(Slice("k"), Slice("v")).isOk());
        std::string v;
        EXPECT_TRUE(bundle.store->get(Slice("k"), &v).isOk());
        EXPECT_EQ(v, "v");
    }

    config.shards = 1;
    {
        bench::StoreBundle bundle = bench::makeStore(config);
        EXPECT_EQ(bundle.store->name().find("x"), std::string::npos);
    }

    // A baseline engine behind the same facade.
    config.store = "novelsm-nosst";
    config.shards = 2;
    {
        bench::StoreBundle bundle = bench::makeStore(config);
        std::string v;
        for (int i = 0; i < 64; i++)
            ASSERT_TRUE(bundle.store
                            ->put(Slice(makeKey(i)), Slice("nv"))
                            .isOk());
        for (int i = 0; i < 64; i++)
            EXPECT_TRUE(
                bundle.store->get(Slice(makeKey(i)), &v).isOk());
    }
}

} // namespace
} // namespace mio::shard
