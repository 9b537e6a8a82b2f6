/** @file Concurrency soak under injected media faults: writers,
 *  readers, and the background scrubber run together while the NVM
 *  device injects latency spikes and framed-write corruption. Every
 *  operation must finish with a sane status -- never an abort, never a
 *  wrong value. Part of the TSan suite. */
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "miodb/miodb.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

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
    std::atomic<int> bad_statuses{0};
    std::atomic<bool> stop_readers{false};

    auto writer = [&](int id) {
        std::string value(512, static_cast<char>('a' + id));
        for (int i = 0; i < kOpsPerWriter; i++) {
            Status s = db.put(
                Slice(makeKey(id * kOpsPerWriter + i)), Slice(value));
            if (!s.isOk() && !s.isBusy())
                bad_statuses.fetch_add(1);
        }
    };
    auto reader = [&] {
        Random rng(0x50f7);
        std::string v;
        while (!stop_readers.load()) {
            uint64_t k = rng.next() % (kWriters * kOpsPerWriter);
            Status s = db.get(Slice(makeKey(k)), &v);
            // No corruption is injected into payloads here (spikes
            // only), so reads are ok or not-yet-written.
            if (!s.isOk() && !s.isNotFound())
                bad_statuses.fetch_add(1);
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
    db.waitIdle();
    // The scrubber runs on its own period: wait for a completed pass
    // as an event (a slow host may fit none into the traffic phase),
    // then check it found nothing to quarantine.
    db.scheduler().waitUntil(
        [&] { return db.stats().scrub_passes.load() > 0; });
    EXPECT_GT(db.stats().scrub_passes.load(), 0u);
    EXPECT_EQ(db.stats().tables_quarantined.load(), 0u);
    std::string v;
    for (int i = 0; i < kWriters * kOpsPerWriter; i += 37)
        ASSERT_TRUE(db.get(Slice(makeKey(i)), &v).isOk()) << i;
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
