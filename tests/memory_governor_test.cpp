/** @file Memory governor battery: the charge ledger's drift witness,
 *  limits and admission checks, and store-level runs that check every
 *  get against a reference std::map while flushes, merges and vlog GC
 *  run below -- 500 seeds on one store, 40 on a three-shard set, and
 *  a concurrent-reader leg meant to run under TSan (scripts/check.sh).
 *  Each store run ends on the governor's accounting checks. Selected
 *  via `ctest -L governor`. */
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
#include "miodb/miodb.h"
#include "shard/sharded_miodb.h"
#include "util/random.h"

namespace mio {
namespace {

using mem::MemoryGovernor;
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
    EXPECT_EQ(g.limit(SubBudget::kMemtableDram), 2u * c.memtable_bytes);
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
storeOptions()
{
    MioOptions o;
    o.memtable_size = 4 << 10;
    o.elastic_levels = 3;
    o.value_separation_threshold = 64; // mix inline and vlog values
    o.vlog_segment_bytes = 4 << 10;
    o.deterministic_background = true;
    return o;
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
    MioOptions o = storeOptions();
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
    // Full sweep: every key agrees with the model.
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

TEST(GovernorStoreTest, RandomizedReadsVsModel500Seeds)
{
    for (uint64_t seed = 1; seed <= 500; seed++)
        runRandomizedSeed(seed, /*sharded=*/false);
}

TEST(GovernorStoreTest, RandomizedShardedReadsVsModel40Seeds)
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

TEST(GovernorStoreTest, ConcurrentReadersNeverSeeVersionGoBackwards)
{
    MioOptions o;
    o.memtable_size = 8 << 10;
    o.elastic_levels = 3;
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
