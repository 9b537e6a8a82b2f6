/** @file Memory governor + DRAM read cache battery: governor
 *  charge/release drift witness, tuner hysteresis/floors/watermark
 *  policy, cache LRU/epoch semantics, and the store-level staleness
 *  guarantee -- randomized reads racing flushes, merges, and vlog GC
 *  checked against a reference std::map per seed, a quarantine leg
 *  proving a cached value never masks corruption, and a
 *  concurrent-writer leg meant to run under TSan (scripts/check.sh's
 *  cache stage). Selected via `ctest -L cache`. */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mem/memory_governor.h"
#include "mem/read_cache.h"
#include "miodb/miodb.h"
#include "shard/sharded_miodb.h"
#include "util/random.h"

namespace mio {
namespace {

using mem::MemoryGovernor;
using mem::ReadCache;
using mem::SubBudget;
using miodb::MioDB;
using miodb::MioOptions;

// ---------------------------------------------------------------
// MemoryGovernor units
// ---------------------------------------------------------------

TEST(MemoryGovernorTest, ChargeReleaseAndDriftWitness)
{
    MemoryGovernor::Config c;
    c.memtable_bytes = 1 << 20;
    MemoryGovernor g(c);
    g.registerMemtableCharger();
    EXPECT_TRUE(g.chargesConsistent());
    EXPECT_EQ(g.totalCharged(), 0u);

    g.charge(SubBudget::kMemtableDram, 1000);
    g.charge(SubBudget::kNvmBuffer, 5000);
    g.charge(SubBudget::kVlog, 300);
    EXPECT_EQ(g.charged(SubBudget::kMemtableDram), 1000u);
    EXPECT_EQ(g.charged(SubBudget::kNvmBuffer), 5000u);
    EXPECT_EQ(g.totalCharged(), 6300u);
    EXPECT_TRUE(g.chargesConsistent());

    g.release(SubBudget::kNvmBuffer, 5000);
    g.release(SubBudget::kMemtableDram, 1000);
    g.release(SubBudget::kVlog, 300);
    EXPECT_EQ(g.totalCharged(), 0u);
    EXPECT_TRUE(g.chargesConsistent());
}

TEST(MemoryGovernorTest, DriftWitnessHoldsUnderConcurrentChurn)
{
    // A balanced charge/release churn never drifts, so the witness
    // must never report drift while it runs -- including when a read
    // lands between a release's two steps (sub already dropped, total
    // not yet), where total does not move during the whole read.
    MemoryGovernor::Config c;
    MemoryGovernor g(c);
    g.charge(SubBudget::kNvmBuffer, 1 << 20);
    std::atomic<bool> stop{false};
    std::thread churn([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            g.charge(SubBudget::kVlog, 4096);
            g.release(SubBudget::kVlog, 4096);
        }
    });
    int false_drift = 0;
    for (int i = 0; i < 200000; i++) {
        if (!g.chargesConsistent())
            false_drift++;
    }
    stop.store(true);
    churn.join();
    EXPECT_EQ(false_drift, 0);
    EXPECT_TRUE(g.chargesConsistent());
}

TEST(MemoryGovernorTest, MemtableChargersSplitTheLimit)
{
    MemoryGovernor::Config c;
    c.memtable_bytes = 1 << 20;
    MemoryGovernor g(c);
    EXPECT_EQ(g.limit(SubBudget::kMemtableDram), 0u);
    g.registerMemtableCharger();
    g.registerMemtableCharger();
    EXPECT_EQ(g.memtableChargers(), 2);
    EXPECT_EQ(g.limit(SubBudget::kMemtableDram), 2u << 20);
    // Per-charger rotation target = limit / chargers.
    EXPECT_EQ(g.memtableTargetBytes(), 1u << 20);
}

TEST(MemoryGovernorTest, WouldExceedHonorsLimitsZeroMeansUnlimited)
{
    MemoryGovernor::Config c;
    c.vlog_budget_bytes = 10000;
    MemoryGovernor g(c);
    EXPECT_FALSE(g.wouldExceed(SubBudget::kVlog, 10000));
    EXPECT_TRUE(g.wouldExceed(SubBudget::kVlog, 10001));
    g.charge(SubBudget::kVlog, 6000);
    EXPECT_TRUE(g.wouldExceed(SubBudget::kVlog, 4001));
    EXPECT_FALSE(g.wouldExceed(SubBudget::kVlog, 4000));
    // NVM buffer limit 0 = uncapped.
    EXPECT_FALSE(g.wouldExceed(SubBudget::kNvmBuffer, 1u << 30));
}

MemoryGovernor::Config
adaptiveConfig()
{
    MemoryGovernor::Config c;
    c.memtable_bytes = 1 << 20;
    c.read_cache_bytes = 1 << 20;
    c.adaptive = true;
    c.dram_floor_fraction = 0.125;
    return c;
}

TEST(MemoryGovernorTest, TunerGrowsCacheOnEvictionChurn)
{
    MemoryGovernor g(adaptiveConfig());
    g.registerMemtableCharger();
    const uint64_t mem0 = g.limit(SubBudget::kMemtableDram);
    const uint64_t cache0 = g.limit(SubBudget::kReadCacheDram);

    MemoryGovernor::TunerSignals s;
    g.tunerPass(s); // priming window
    s.cache_hits = 50;
    s.cache_misses = 50;
    s.cache_evictions = 10;
    EXPECT_FALSE(g.tunerPass(s)); // one agreeing window: no move yet
    EXPECT_EQ(g.tunerMoves(), 0u);
    s.cache_hits = 100;
    s.cache_misses = 100;
    s.cache_evictions = 25;
    EXPECT_TRUE(g.tunerPass(s)); // second window: act
    EXPECT_EQ(g.tunerMoves(), 1u);
    EXPECT_GT(g.limit(SubBudget::kReadCacheDram), cache0);
    EXPECT_LT(g.limit(SubBudget::kMemtableDram), mem0);
    // DRAM is conserved: the move shifts, never creates.
    EXPECT_EQ(g.limit(SubBudget::kReadCacheDram) +
                  g.limit(SubBudget::kMemtableDram),
              mem0 + cache0);
}

TEST(MemoryGovernorTest, TunerGrowsMemtableOnWriteStalls)
{
    MemoryGovernor g(adaptiveConfig());
    g.registerMemtableCharger();
    const uint64_t mem0 = g.limit(SubBudget::kMemtableDram);

    MemoryGovernor::TunerSignals s;
    g.tunerPass(s);
    s.write_stalls = 1;
    g.tunerPass(s);
    s.write_stalls = 3;
    EXPECT_TRUE(g.tunerPass(s));
    EXPECT_GT(g.limit(SubBudget::kMemtableDram), mem0);
    // The rotation target follows the tuned limit.
    EXPECT_EQ(g.memtableTargetBytes(),
              g.limit(SubBudget::kMemtableDram));
}

TEST(MemoryGovernorTest, TunerRespectsFloorAndCooldown)
{
    MemoryGovernor::Config c = adaptiveConfig();
    c.read_cache_bytes = 128 << 10; // near the 12.5% floor already
    MemoryGovernor g(c);
    g.registerMemtableCharger();
    const uint64_t cache0 = g.limit(SubBudget::kReadCacheDram);

    // Sustained write pressure wants to shrink the cache, but the
    // floor leaves no headroom: no move ever happens.
    MemoryGovernor::TunerSignals s;
    g.tunerPass(s);
    for (int i = 1; i <= 4; i++) {
        s.write_stalls = static_cast<uint64_t>(i);
        g.tunerPass(s);
    }
    EXPECT_EQ(g.limit(SubBudget::kReadCacheDram), cache0);

    // Cooldown: after a real move, two more agreeing windows are
    // absorbed before the next move can happen.
    MemoryGovernor g2(adaptiveConfig());
    g2.registerMemtableCharger();
    MemoryGovernor::TunerSignals t;
    g2.tunerPass(t);
    for (int i = 1; i <= 2; i++) {
        t.cache_hits += 100;
        t.cache_misses += 100;
        t.cache_evictions += 10;
        g2.tunerPass(t);
    }
    EXPECT_EQ(g2.tunerMoves(), 1u);
    for (int i = 0; i < 2; i++) { // cooldown windows
        t.cache_hits += 100;
        t.cache_misses += 100;
        t.cache_evictions += 10;
        g2.tunerPass(t);
    }
    EXPECT_EQ(g2.tunerMoves(), 1u);
}

TEST(MemoryGovernorTest, SoftWatermarkDropsUnderStallsAndCreepsBack)
{
    MemoryGovernor::Config c = adaptiveConfig();
    c.nvm_soft_watermark = 0.85;
    MemoryGovernor g(c);
    g.registerMemtableCharger();
    EXPECT_DOUBLE_EQ(g.nvmSoftWatermark(), 0.85);
    EXPECT_DOUBLE_EQ(g.nvmHardWatermark(), 0.95);

    MemoryGovernor::TunerSignals s;
    g.tunerPass(s);
    s.write_stalls = 1;
    s.nvm_usage = 0.9;
    g.tunerPass(s);
    EXPECT_NEAR(g.nvmSoftWatermark(), 0.80, 1e-9);
    // Keep stalling: bounded at configured - 0.25.
    for (int i = 2; i < 20; i++) {
        s.write_stalls = static_cast<uint64_t>(i);
        g.tunerPass(s);
    }
    EXPECT_NEAR(g.nvmSoftWatermark(), 0.60, 1e-9);
    // Calm windows creep back toward the configured value.
    s.nvm_usage = 0.3;
    for (int i = 0; i < 20; i++)
        g.tunerPass(s);
    EXPECT_NEAR(g.nvmSoftWatermark(), 0.85, 1e-9);
}

// ---------------------------------------------------------------
// ReadCache units (one stripe makes LRU order deterministic)
// ---------------------------------------------------------------

TEST(ReadCacheTest, InsertLookupAndLruEviction)
{
    // Room for ~3 of our entries: charge = 2*4 + 100 + 64 = 172.
    ReadCache cache(3 * 172, nullptr, nullptr, /*stripes=*/1);
    std::string value(100, 'v'), got;
    uint64_t epoch = 0;
    for (const char *k : {"aaa1", "aaa2", "aaa3"}) {
        EXPECT_FALSE(cache.lookup(Slice(k), &got, &epoch));
        cache.insert(Slice(k), Slice(value), epoch);
    }
    EXPECT_EQ(cache.entryCount(), 3u);
    // Touch aaa1 so aaa2 becomes LRU, then overflow with aaa4.
    EXPECT_TRUE(cache.lookup(Slice("aaa1"), &got, &epoch));
    EXPECT_EQ(got, value);
    EXPECT_FALSE(cache.lookup(Slice("aaa4"), &got, &epoch));
    cache.insert(Slice("aaa4"), Slice(value), epoch);
    EXPECT_EQ(cache.entryCount(), 3u);
    EXPECT_FALSE(cache.lookup(Slice("aaa2"), &got, &epoch));
    EXPECT_TRUE(cache.lookup(Slice("aaa1"), &got, &epoch));
    EXPECT_TRUE(cache.lookup(Slice("aaa4"), &got, &epoch));
}

TEST(ReadCacheTest, EpochAbortsFillAfterInvalidation)
{
    ReadCache cache(1 << 16, nullptr, nullptr, 1);
    std::string got;
    uint64_t epoch = 0;
    EXPECT_FALSE(cache.lookup(Slice("key"), &got, &epoch));
    // The invalidation races the fill and must win.
    cache.invalidate(Slice("key"));
    cache.insert(Slice("key"), Slice("stale"), epoch);
    EXPECT_FALSE(cache.lookup(Slice("key"), &got, &epoch));
    // A fill started after the invalidation lands fine.
    cache.insert(Slice("key"), Slice("fresh"), epoch);
    EXPECT_TRUE(cache.lookup(Slice("key"), &got, &epoch));
    EXPECT_EQ(got, "fresh");
}

TEST(ReadCacheTest, ClearDropsEverythingAndAbortsFills)
{
    ReadCache cache(1 << 16, nullptr, nullptr, 4);
    std::string got;
    uint64_t e1 = 0, e2 = 0;
    EXPECT_FALSE(cache.lookup(Slice("k1"), &got, &e1));
    cache.insert(Slice("k1"), Slice("v1"), e1);
    EXPECT_FALSE(cache.lookup(Slice("k2"), &got, &e2));
    cache.clear();
    cache.insert(Slice("k2"), Slice("v2"), e2); // epoch moved: dropped
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.bytesUsed(), 0u);
}

TEST(ReadCacheTest, GovernorChargeTracksBytesAndSetCapacityTrims)
{
    auto gov = std::make_shared<MemoryGovernor>(MemoryGovernor::Config{});
    {
        ReadCache cache(1 << 16, gov, nullptr, 1);
        std::string value(200, 'v'), got;
        uint64_t epoch = 0;
        for (int i = 0; i < 20; i++) {
            std::string k = "key" + std::to_string(100 + i);
            EXPECT_FALSE(cache.lookup(Slice(k), &got, &epoch));
            cache.insert(Slice(k), Slice(value), epoch);
        }
        EXPECT_EQ(gov->charged(SubBudget::kReadCacheDram),
                  cache.bytesUsed());
        EXPECT_TRUE(gov->chargesConsistent());
        // Shrinking evicts eagerly and releases the governor charge.
        cache.setCapacity(1 << 10);
        EXPECT_LE(cache.bytesUsed(), 1u << 10);
        EXPECT_EQ(gov->charged(SubBudget::kReadCacheDram),
                  cache.bytesUsed());
        EXPECT_GT(cache.entryCount(), 0u);
    }
    // Destruction releases everything.
    EXPECT_EQ(gov->charged(SubBudget::kReadCacheDram), 0u);
    EXPECT_TRUE(gov->chargesConsistent());
}

TEST(ReadCacheTest, OversizedEntryIsRejected)
{
    ReadCache cache(512, nullptr, nullptr, 1);
    std::string huge(4096, 'h'), got;
    uint64_t epoch = 0;
    EXPECT_FALSE(cache.lookup(Slice("big"), &got, &epoch));
    cache.insert(Slice("big"), Slice(huge), epoch);
    EXPECT_EQ(cache.entryCount(), 0u);
}

// ---------------------------------------------------------------
// MioDB integration
// ---------------------------------------------------------------

std::string
makeKey(int i)
{
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
}

MioOptions
cacheOptions()
{
    MioOptions o;
    o.memtable_size = 4 << 10;
    o.elastic_levels = 3;
    o.read_cache_bytes = 64 << 10;
    o.value_separation_threshold = 64; // mix inline and vlog values
    o.vlog_segment_bytes = 4 << 10;
    o.deterministic_background = true;
    return o;
}

TEST(CacheIntegrationTest, HitServesMaterializedValueAndCounts)
{
    sim::NvmDevice nvm;
    MioDB db(cacheOptions(), &nvm);
    std::string small(32, 's');   // stays inline
    std::string large(256, 'l');  // separated into the vlog
    ASSERT_TRUE(db.put(Slice("aaa"), Slice(small)).isOk());
    ASSERT_TRUE(db.put(Slice("bbb"), Slice(large)).isOk());
    // Push everything below the DRAM write path.
    for (int i = 0; i < 200; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(small)).isOk());
    db.waitIdle();

    std::string got;
    ASSERT_TRUE(db.get(Slice("aaa"), &got).isOk());
    EXPECT_EQ(got, small);
    ASSERT_TRUE(db.get(Slice("bbb"), &got).isOk());
    EXPECT_EQ(got, large);
    const uint64_t derefs_before_hit =
        db.stats().vlog_deref_reads.load();
    ASSERT_TRUE(db.get(Slice("aaa"), &got).isOk());
    EXPECT_EQ(got, small);
    ASSERT_TRUE(db.get(Slice("bbb"), &got).isOk());
    EXPECT_EQ(got, large);
    // Second reads hit; the vlog hit skipped the pointer dereference
    // (the cache stores the materialized value).
    EXPECT_GE(db.stats().cache_hits.load(), 2u);
    EXPECT_EQ(db.stats().vlog_deref_reads.load(), derefs_before_hit);
    EXPECT_TRUE(db.memoryAccountingConsistent());
}

TEST(CacheIntegrationTest, FlushInvalidationPreventsStaleReads)
{
    sim::NvmDevice nvm;
    MioDB db(cacheOptions(), &nvm);
    std::string pad(40, 'p');
    ASSERT_TRUE(db.put(Slice("hot"), Slice("v1" + pad)).isOk());
    for (int i = 0; i < 150; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(pad)).isOk());
    db.waitIdle();

    // Fill the cache with v1 from below the write path.
    std::string got;
    ASSERT_TRUE(db.get(Slice("hot"), &got).isOk());
    ASSERT_TRUE(db.get(Slice("hot"), &got).isOk());
    EXPECT_EQ(got, "v1" + pad);

    // Overwrite, then flush the overwrite past the MemTable: the
    // install-boundary invalidation must beat the cached v1.
    ASSERT_TRUE(db.put(Slice("hot"), Slice("v2" + pad)).isOk());
    for (int i = 0; i < 150; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(pad)).isOk());
    db.waitIdle();
    for (int round = 0; round < 3; round++) {
        ASSERT_TRUE(db.get(Slice("hot"), &got).isOk());
        ASSERT_EQ(got, "v2" + pad) << "stale cached value served";
    }
    // Deletion shadows survive the same path.
    ASSERT_TRUE(db.remove(Slice("hot")).isOk());
    for (int i = 0; i < 150; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(pad)).isOk());
    db.waitIdle();
    EXPECT_TRUE(db.get(Slice("hot"), &got).isNotFound());
    EXPECT_TRUE(db.memoryAccountingConsistent());
}

TEST(CacheIntegrationTest, QuarantineNeverMaskedByCachedValue)
{
    MioOptions o = cacheOptions();
    o.value_separation_threshold = 0; // keep payloads in the PMTable
    o.auto_compaction = false;        // hold the L0 tables static
    sim::NvmDevice nvm;
    MioDB db(o, &nvm);
    std::string value(100, 'q');
    for (int i = 0; i < 200; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(value)).isOk());
    db.waitIdle();
    auto snap = db.levels().level(0).snapshot();
    ASSERT_FALSE(snap.tables.empty());
    miodb::PMTable *table = snap.tables.back().get();
    SkipList::Iterator it(&table->list());
    it.seekToFirst();
    ASSERT_TRUE(it.valid());
    const std::string victim = it.key().toString();

    // Cache the value, then corrupt its source entry.
    std::string got;
    ASSERT_TRUE(db.get(Slice(victim), &got).isOk());
    ASSERT_TRUE(db.get(Slice(victim), &got).isOk());
    EXPECT_GE(db.stats().cache_hits.load(), 1u);
    nvm.injectBitFlipAt(const_cast<char *>(it.value().data()), 0, 3);

    // The scrub pass quarantines the table AND clears the cache, so
    // the read answers corruption -- a cached copy must never mask
    // damaged media.
    EXPECT_GT(db.scrubNow(), 0u);
    EXPECT_GT(db.stats().cache_invalidations.load(), 0u);
    EXPECT_TRUE(db.get(Slice(victim), &got).isCorruption());
}

TEST(CacheIntegrationTest, AdaptiveTunerShiftsSplitTowardReads)
{
    MioOptions o = cacheOptions();
    o.adaptive_memory = true;
    o.read_cache_bytes = 8 << 10; // small enough to churn
    // Inline values: pointer-only memtable entries would let the whole
    // dataset sit inside the 64 KiB adaptive rotation floor and reads
    // would never reach the cache.
    o.value_separation_threshold = 512;
    sim::NvmDevice nvm;
    MioDB db(o, &nvm);
    const uint64_t cache0 =
        db.governor().limit(SubBudget::kReadCacheDram);
    std::string value(150, 'r');
    for (int i = 0; i < 600; i++)
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(value)).isOk());
    db.waitIdle();
    // Read-dominant phase with a churning cache; drive the periodic
    // pass by hand (deterministic mode never self-fires it).
    std::string got;
    for (int round = 0; round < 6; round++) {
        for (int i = 0; i < 600; i++)
            ASSERT_TRUE(db.get(Slice(makeKey(i)), &got).isOk());
        db.memTunerPass();
    }
    EXPECT_GT(db.stats().cache_evictions.load(), 0u);
    EXPECT_GT(db.governor().tunerMoves(), 0u);
    EXPECT_GT(db.governor().limit(SubBudget::kReadCacheDram), cache0);
    // The cache object followed the retarget.
    EXPECT_EQ(db.readCache()->capacity(),
              db.governor().limit(SubBudget::kReadCacheDram));
    EXPECT_TRUE(db.memoryAccountingConsistent());
}

// ---------------------------------------------------------------
// Randomized reads vs reference model: 500 seeds of put/delete/get
// racing flush, merges, and vlog GC; exact equality on every get
// proves no interleaving can serve a stale or resurrected value.
// ---------------------------------------------------------------

void
runRandomizedSeed(uint64_t seed, bool sharded)
{
    Random rnd(seed);
    sim::NvmDevice nvm;
    MioOptions o = cacheOptions();
    o.read_cache_bytes = 8 << 10; // tiny: force eviction + refill
    o.vlog_gc_trigger_ratio = 0.5;
    std::unique_ptr<KVStore> store;
    shard::ShardedMioDB *facade = nullptr;
    MioDB *mio = nullptr;
    if (sharded) {
        auto s = std::make_unique<shard::ShardedMioDB>(o, 3, &nvm);
        facade = s.get();
        store = std::move(s);
    } else {
        auto s = std::make_unique<MioDB>(o, &nvm);
        mio = s.get();
        store = std::move(s);
    }

    std::map<std::string, std::string> model;
    const int key_space = 48;
    const int ops = 160;
    for (int op = 0; op < ops; op++) {
        const std::string key =
            makeKey(static_cast<int>(rnd.uniform(key_space)));
        const uint32_t kind = rnd.uniform(100);
        if (kind < 45) {
            // Sizes straddle the separation threshold (64).
            const size_t len = 16 + rnd.uniform(180);
            std::string value(
                len, static_cast<char>('a' + rnd.uniform(26)));
            value += std::to_string(op);
            ASSERT_TRUE(store->put(Slice(key), Slice(value)).isOk());
            model[key] = value;
        } else if (kind < 55) {
            ASSERT_TRUE(store->remove(Slice(key)).isOk());
            model.erase(key);
        } else {
            std::string got;
            Status s = store->get(Slice(key), &got);
            auto it = model.find(key);
            if (it == model.end()) {
                ASSERT_TRUE(s.isNotFound())
                    << "seed " << seed << " op " << op << " key "
                    << key << ": " << s.toString();
            } else {
                ASSERT_TRUE(s.isOk()) << "seed " << seed << " op "
                                      << op << ": " << s.toString();
                ASSERT_EQ(got, it->second)
                    << "seed " << seed << " op " << op << " key "
                    << key << ": stale value served";
            }
        }
        if (rnd.uniform(40) == 0)
            store->waitIdle();
    }
    store->waitIdle();
    // Full sweep: the cache (warmed by the loop above) must agree
    // with the model for every key, hit or miss.
    for (int i = 0; i < key_space; i++) {
        const std::string key = makeKey(i);
        std::string got;
        Status s = store->get(Slice(key), &got);
        auto it = model.find(key);
        if (it == model.end()) {
            ASSERT_TRUE(s.isNotFound()) << "seed " << seed;
        } else {
            ASSERT_TRUE(s.isOk()) << "seed " << seed;
            ASSERT_EQ(got, it->second) << "seed " << seed << " key "
                                       << key;
        }
    }
    if (sharded) {
        ASSERT_TRUE(facade->memoryAccountingConsistent())
            << "seed " << seed << ": "
            << facade->memoryGovernor().debugString();
    } else {
        ASSERT_TRUE(mio->memoryAccountingConsistent())
            << "seed " << seed << ": "
            << mio->governor().debugString();
    }
}

TEST(CacheIntegrationTest, RandomizedReadsVsModel500Seeds)
{
    for (uint64_t seed = 1; seed <= 500; seed++)
        runRandomizedSeed(seed, /*sharded=*/false);
}

TEST(CacheIntegrationTest, RandomizedShardedSharedCacheVsModel)
{
    for (uint64_t seed = 1; seed <= 40; seed++)
        runRandomizedSeed(seed, /*sharded=*/true);
}

// ---------------------------------------------------------------
// Concurrent leg (run under TSan by scripts/check.sh): readers race
// a writer that keeps bumping per-key versions while flushes, merges
// and GC churn below. A reader may see any committed version, but
// never an OLDER one than it already observed for that key.
// ---------------------------------------------------------------

TEST(CacheIntegrationTest, ConcurrentReadersNeverSeeVersionGoBackwards)
{
    MioOptions o;
    o.memtable_size = 8 << 10;
    o.elastic_levels = 3;
    o.read_cache_bytes = 16 << 10;
    o.value_separation_threshold = 64;
    o.vlog_segment_bytes = 8 << 10;
    sim::NvmDevice nvm;
    MioDB db(o, &nvm);

    constexpr int kKeys = 16;
    constexpr int kVersions = 400;
    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};

    std::thread writer([&] {
        for (int v = 1; v <= kVersions && !failed.load(); v++) {
            for (int k = 0; k < kKeys; k++) {
                // Alternate inline and vlog-separated payloads.
                std::string value = std::to_string(v);
                value.append(v % 2 ? 120 : 32, '.');
                Status s = db.put(Slice(makeKey(k)), Slice(value));
                for (int retry = 0; s.isBusy() && retry < 100; retry++)
                    s = db.put(Slice(makeKey(k)), Slice(value));
                if (!s.isOk()) {
                    failed.store(true);
                    ADD_FAILURE() << "put failed: " << s.toString();
                    break;
                }
            }
        }
        done.store(true);
    });

    std::vector<std::thread> readers;
    for (int t = 0; t < 3; t++) {
        readers.emplace_back([&, t] {
            Random rnd(0x5eed + t);
            std::vector<int> last_seen(kKeys, 0);
            while (!done.load() && !failed.load()) {
                int k = static_cast<int>(rnd.uniform(kKeys));
                std::string got;
                Status s = db.get(Slice(makeKey(k)), &got);
                if (!s.isOk())
                    continue; // not yet written
                int v = std::atoi(got.c_str());
                if (v < last_seen[k]) {
                    failed.store(true);
                    ADD_FAILURE()
                        << "key " << k << " went backwards: saw " << v
                        << " after " << last_seen[k];
                }
                last_seen[k] = v;
            }
        });
    }
    writer.join();
    for (auto &r : readers)
        r.join();
    ASSERT_FALSE(failed.load());
    db.waitIdle();
    EXPECT_TRUE(db.governor().chargesConsistent());
    // Final state: every key at its last committed version.
    for (int k = 0; k < kKeys; k++) {
        std::string got;
        ASSERT_TRUE(db.get(Slice(makeKey(k)), &got).isOk());
        EXPECT_EQ(std::atoi(got.c_str()), kVersions);
    }
}

} // namespace
} // namespace mio
