/** @file Concurrency soak under injected media faults: writers,
 *  readers, and the background scrubber run together while the NVM
 *  device injects latency spikes and framed-write corruption. Every
 *  operation must finish with a sane status -- never an abort -- and
 *  every get must return the written value, unless the device's fault
 *  log shows the key's value frame or index node was damaged, which
 *  must read as corruption. Part of the TSan suite. */
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "miodb/lazy_copy_merge.h"
#include "miodb/miodb.h"
#include "util/random.h"

namespace mio::miodb {

/** Reaches GC's private liveness probe (declared a friend there). */
struct MioDBTestPeer {
    static bool
    findNewestRaw(MioDB *db, const Slice &key, std::string *value,
                  EntryType *type, bool *corrupt)
    {
        return db->findNewestRaw(key, value, type, nullptr, corrupt);
    }
};

namespace {

/** Value-log frame header: [u32 crc][u32 key_len][u32 value_len]. */
constexpr size_t kFrameHeader = 12;

/**
 * True when a fault the device recorded overlaps @p key's value-log
 * frame or a node holding @p key (a resident PMTable's or the
 * repository's). Call on a quiescent store.
 */
bool
faultHitKey(MioDB *db, sim::NvmDevice *nvm, const std::string &key)
{
    const auto faults = nvm->faultRanges();
    auto hit = [&](const char *begin, const char *end) {
        for (const sim::NvmFaultRange &f : faults) {
            if (f.overlaps(begin, end))
                return true;
        }
        return false;
    };
    auto node_hit = [&](const SkipList &list) {
        const SkipList::Node *n = list.findEntry(Slice(key));
        if (n == nullptr)
            return false;
        const char *b = reinterpret_cast<const char *>(n);
        return hit(b, b + n->allocationSize());
    };
    for (int i = 0; i < db->levels().numLevels(); i++) {
        auto m = db->levels().level(i).manifestSnapshot();
        for (const auto &ref : m->tables) {
            if (node_hit(ref.table->list()))
                return true;
        }
        if (m->migrating != nullptr && node_hit(m->migrating->list()))
            return true;
    }
    auto *repo = dynamic_cast<PmRepository *>(&db->repository());
    if (repo != nullptr && repo->entryCount() > 0 && node_hit(repo->list()))
        return true;

    std::string raw;
    EntryType type = EntryType::kValue;
    bool corrupt = false;
    ValuePointer ptr;
    if (!MioDBTestPeer::findNewestRaw(db, Slice(key), &raw, &type,
                                      &corrupt) ||
        type != EntryType::kValuePointer ||
        !ValuePointer::decode(Slice(raw), &ptr)) {
        return false;
    }
    const char *base = db->nvmState()->vlog->segmentBase(ptr.segment_id);
    if (base == nullptr)
        return false;
    const char *payload = base + ptr.offset;
    return hit(payload - kFrameHeader - key.size(), payload + ptr.length);
}

TEST(FaultSoakTest, ConcurrentTrafficUnderSpikesAndScrubber)
{
    sim::NvmDevice nvm;
    // An env-armed spec (scripts/fault_sweep.sh drives a MIO_NVM_FAULTS
    // matrix through this test) takes precedence; the default arms
    // rare latency spikes.
    sim::NvmFaultSpec spec = nvm.faultSpec();
    if (!spec.anyRateFault() && spec.capacity_bytes == 0) {
        spec.spike_rate = 0.002;
        spec.spike_ns = 200000;  // 0.2 ms, rare: keeps runtime bounded
        nvm.setFaultSpec(spec);
    }

    MioOptions o;
    o.memtable_size = 32 << 10;
    o.elastic_levels = 3;
    o.scrub_interval_ms = 2;  // scrubber races the traffic
    MioDB db(o, &nvm);

    constexpr int kWriters = 3;
    constexpr int kReaders = 2;
    constexpr int kOpsPerWriter = 400;
    constexpr int kKeys = kWriters * kOpsPerWriter;
    // Each key is written once, with its writer's value.
    auto expected = [](int k) {
        return std::string(512, static_cast<char>('a' + k / kOpsPerWriter));
    };
    std::vector<std::atomic<bool>> acked(kKeys);
    std::atomic<int> bad_statuses{0};
    std::atomic<int> wrong_values{0};
    std::atomic<bool> stop_readers{false};
    std::mutex corrupt_mu;
    std::set<int> corrupt_keys;  // gets that answered corruption

    auto writer = [&](int id) {
        for (int i = 0; i < kOpsPerWriter; i++) {
            const int k = id * kOpsPerWriter + i;
            Status s = db.put(Slice(makeKey(k)), Slice(expected(k)));
            if (s.isOk())
                acked[k].store(true);
            else if (!s.isBusy())
                bad_statuses.fetch_add(1);
        }
    };
    auto reader = [&] {
        Random rng(0x50f7);
        std::string v;
        while (!stop_readers.load()) {
            const int k = static_cast<int>(rng.next() % kKeys);
            const bool was_acked = acked[k].load();
            Status s = db.get(Slice(makeKey(k)), &v);
            if (s.isOk()) {
                if (v != expected(k))
                    wrong_values.fetch_add(1);
            } else if (s.isCorruption()) {
                std::lock_guard<std::mutex> lock(corrupt_mu);
                corrupt_keys.insert(k);
            } else if (!s.isNotFound() || was_acked) {
                bad_statuses.fetch_add(1);
            }
        }
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < kWriters; i++)
        threads.emplace_back(writer, i);
    for (int i = 0; i < kReaders; i++)
        threads.emplace_back(reader);
    for (int i = 0; i < kWriters; i++)
        threads[i].join();
    stop_readers.store(true);
    for (int i = kWriters; i < kWriters + kReaders; i++)
        threads[i].join();

    EXPECT_EQ(bad_statuses.load(), 0);
    EXPECT_EQ(wrong_values.load(), 0);
    db.waitIdle();
    // The scrubber runs on its own period: wait for a completed pass
    // as an event (a slow host may fit none into the traffic phase),
    // then check it found nothing to quarantine.
    db.scheduler().waitUntil(
        [&] { return db.stats().scrub_passes.load() > 0; });
    EXPECT_GT(db.stats().scrub_passes.load(), 0u);
    EXPECT_EQ(db.stats().tables_quarantined.load(), 0u);
    // A damaged entry stays where the fault left it (GC never moves a
    // frame that fails its checks), so the fault log still explains
    // every corruption answered during the traffic.
    for (int k : corrupt_keys)
        EXPECT_TRUE(faultHitKey(&db, &nvm, makeKey(k))) << k;
    std::string v;
    for (int k = 0; k < kKeys; k++) {
        Status s = db.get(Slice(makeKey(k)), &v);
        if (s.isOk()) {
            EXPECT_EQ(v, expected(k)) << k;
        } else if (s.isCorruption()) {
            EXPECT_TRUE(faultHitKey(&db, &nvm, makeKey(k))) << k;
        } else {
            EXPECT_TRUE(s.isNotFound() && !acked[k].load())
                << k << ": " << s.toString();
        }
    }
}

TEST(FaultSoakTest, WalFrameCorruptionSurfacesAtReplayNotAtRuntime)
{
    // Framed-rate faults hit WAL frames; runtime reads never touch the
    // WAL, so operation statuses stay clean. The damage surfaces as
    // counted corrupt frames when the log is replayed.
    sim::NvmDevice nvm;
    sim::NvmFaultSpec spec;
    spec.bitflip_rate = 0.05;
    spec.torn_rate = 0.02;
    spec.stuck_rate = 0.02;
    nvm.setFaultSpec(spec);

    wal::WalRegistry registry;
    MioOptions o;
    o.memtable_size = 1 << 20;  // keep everything unflushed, WAL-only
    o.elastic_levels = 2;
    std::shared_ptr<NvmState> state;
    {
        MioDB db(o, &nvm, nullptr, &registry);
        state = db.nvmState();
        std::string value(128, 'w');
        for (int i = 0; i < 500; i++)
            ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(value)).isOk());
        EXPECT_GT(nvm.faultMeters().bits_flipped +
                      nvm.faultMeters().torn_writes +
                      nvm.faultMeters().stuck_cachelines,
                  0u);
        db.simulateCrash();
    }

    // Disarm and replay: corrupt frames are detected (CRC), counted,
    // and replay salvages every record up to each tear.
    nvm.setFaultSpec(sim::NvmFaultSpec{});
    MioDB db2(o, &nvm, nullptr, &registry, state);
    EXPECT_GT(db2.stats().wal_corrupt_frames.load(), 0u);
    std::string v;
    int recovered = 0;
    for (int i = 0; i < 500; i++) {
        Status s = db2.get(Slice(makeKey(i)), &v);
        if (s.isOk())
            recovered++;
        else
            EXPECT_TRUE(s.isNotFound()) << s.toString();
    }
    // Some records died with their frames; plenty survived.
    EXPECT_GT(recovered, 0);
}

} // namespace
} // namespace mio::miodb
