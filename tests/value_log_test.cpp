/**
 * @file
 * Key-value separation suite (`ctest -L vlog`): the ValueLog unit
 * surface (append/read/checksum/GC victim picking), a randomized
 * separated-vs-inline equivalence battery, GC reclamation under
 * overwrite/delete-heavy load, and the snapshot-vs-GC interaction
 * (a pinned snapshot must keep resolving pre-relocation pointers).
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "kv/store_stats.h"
#include "miodb/miodb.h"
#include "miodb/value_log.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

MioOptions
vlogOptions(size_t threshold)
{
    MioOptions o;
    o.memtable_size = 16 << 10;
    o.elastic_levels = 4;
    o.value_separation_threshold = threshold;
    o.vlog_segment_bytes = 16 << 10;  // small: GC has victims to pick
    return o;
}

// ---- ValueLog unit surface ----

TEST(ValueLogTest, AppendReadRoundTrip)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    ValueLog log(&nvm, &stats, 4 << 10);
    ValuePointer p1, p2;
    ASSERT_TRUE(log.append(Slice("alpha"), Slice("payload-1"), &p1)
                    .isOk());
    ASSERT_TRUE(
        log.append(Slice("beta"), Slice(std::string(5000, 'x')), &p2)
            .isOk());
    std::string v;
    ASSERT_TRUE(log.read(Slice("alpha"), p1, &v).isOk());
    EXPECT_EQ(v, "payload-1");
    ASSERT_TRUE(log.read(Slice("beta"), p2, &v).isOk());
    EXPECT_EQ(v, std::string(5000, 'x'));
    // An oversized segment was opened for the 5000-byte payload.
    EXPECT_GE(stats.vlog_segments_created.load(), 2u);
}

TEST(ValueLogTest, TornAppendDoesNotHideLaterFrames)
{
    // Frame A's append power-fails between its write and its persist;
    // frame B, appended after it, persists and is acknowledged. After
    // the crash, recovery must still resolve B (and the frame before
    // A): a torn frame may only ever be the segment's tail.
    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    StatsCounters stats;
    ValueLog log(&nvm, &stats, 4 << 10);
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();

    ValuePointer before;
    ASSERT_TRUE(log.append(Slice("k0"), Slice("before"), &before).isOk());
    fp.armCrash("vlog.append", 1);
    ValuePointer torn;
    EXPECT_THROW(log.append(Slice("ka"), Slice("torn-frame"), &torn),
                 sim::SimCrash);
    fp.disarmAll();
    ValuePointer after;
    ASSERT_TRUE(log.append(Slice("kb"), Slice("after"), &after).isOk());

    nvm.discardUnpersisted();
    log.recoverAfterCrash();
    std::string v;
    ASSERT_TRUE(log.read(Slice("k0"), before, &v).isOk());
    EXPECT_EQ(v, "before");
    ASSERT_TRUE(log.read(Slice("kb"), after, &v).isOk());
    EXPECT_EQ(v, "after");
    std::vector<ValueLog::Record> records;
    ASSERT_TRUE(log.collectRecords(after.segment_id, &records));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].key, "kb");
    EXPECT_EQ(log.scrub(), 0u);
}

TEST(ValueLogTest, ReadRejectsCorruptPointer)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    ValueLog log(&nvm, &stats, 4 << 10);
    ValuePointer p;
    ASSERT_TRUE(log.append(Slice("k"), Slice("value-bytes"), &p).isOk());
    ValuePointer bad = p;
    bad.checksum ^= 0xdeadbeef;
    std::string v;
    EXPECT_TRUE(log.read(Slice("k"), bad, &v).isCorruption());
    bad = p;
    bad.segment_id += 99;
    EXPECT_TRUE(log.read(Slice("k"), bad, &v).isNotFound());
    // The frame binds the payload to its key: a pointer read under
    // another key (one of the same length too) is corruption.
    EXPECT_TRUE(log.read(Slice("j"), p, &v).isCorruption());
    EXPECT_TRUE(log.read(Slice("kk"), p, &v).isCorruption());
    ASSERT_TRUE(log.read(Slice("k"), p, &v).isOk());
    EXPECT_EQ(v, "value-bytes");
}

TEST(ValueLogTest, FrameBitFlipsAreCaughtByRescanScrubAndDeref)
{
    // Every bit of the middle of three frames -- header, key, then
    // value -- is flipped in turn, each in a fresh log. The scrubber
    // must count the damage, a dereference must answer corruption,
    // and the recovery rescan must truncate the segment at that frame.
    const std::string keys[3] = {"key-0", "key-1", "key-2"};
    std::string value(40, '\0');
    for (size_t i = 0; i < value.size(); i++)
        value[i] = static_cast<char>('a' + i % 26);
    constexpr size_t kHeader = 12;
    const size_t frame_bits = 8 * (kHeader + keys[1].size() + value.size());
    for (size_t bit = 0; bit < frame_bits; bit++) {
        const char *part = bit < 8 * kHeader ? "header"
                           : bit < 8 * (kHeader + keys[1].size())
                               ? "key"
                               : "value";
        SCOPED_TRACE(testing::Message() << part << " bit " << bit);
        sim::NvmDevice nvm;
        StatsCounters stats;
        ValueLog log(&nvm, &stats, 4 << 10);
        ValuePointer ptrs[3];
        for (int i = 0; i < 3; i++) {
            ASSERT_TRUE(
                log.append(Slice(keys[i]), Slice(value), &ptrs[i]).isOk());
        }
        ASSERT_EQ(ptrs[0].segment_id, ptrs[2].segment_id);
        char *frame = log.segmentBase(ptrs[1].segment_id) +
                      ptrs[1].offset - kHeader - keys[1].size();
        nvm.injectBitFlipAt(frame, bit / 8, static_cast<int>(bit % 8));

        EXPECT_EQ(log.scrub(), 1u);
        std::string v;
        EXPECT_TRUE(log.read(Slice(keys[1]), ptrs[1], &v).isCorruption());
        ASSERT_TRUE(log.read(Slice(keys[0]), ptrs[0], &v).isOk());
        EXPECT_EQ(v, value);

        log.recoverAfterCrash();
        std::vector<ValueLog::Record> records;
        ASSERT_TRUE(log.collectRecords(ptrs[0].segment_id, &records));
        ASSERT_EQ(records.size(), 1u);
        EXPECT_EQ(records[0].key, keys[0]);
        EXPECT_EQ(records[0].ptr, ptrs[0]);
        EXPECT_FALSE(log.read(Slice(keys[2]), ptrs[2], &v).isOk());
        EXPECT_EQ(log.scrub(), 0u);
    }
}

TEST(ValueLogTest, GcVictimPicksColdSealedSegment)
{
    sim::NvmDevice nvm;
    StatsCounters stats;
    ValueLog log(&nvm, &stats, 4 << 10);
    std::vector<ValuePointer> ptrs;
    std::string payload(512, 'p');
    // Fill several segments.
    for (int i = 0; i < 24; i++) {
        ValuePointer p;
        ASSERT_TRUE(
            log.append(Slice(makeKey(i)), Slice(payload), &p).isOk());
        ptrs.push_back(p);
    }
    ASSERT_GT(log.segmentCount(), 2u);
    // Nothing dead yet: no victim below a 0.5 live fraction.
    EXPECT_EQ(log.pickGcVictim(0.5), 0u);
    // Kill everything in the first segment.
    const uint64_t first = ptrs[0].segment_id;
    for (const ValuePointer &p : ptrs) {
        if (p.segment_id == first)
            log.noteDead(p);
    }
    const uint64_t victim = log.pickGcVictim(0.5);
    EXPECT_EQ(victim, first);
    // Queued-for-unlink segments leave the candidate pool (the GC
    // job's anti-livelock invariant while a snapshot holds the gate).
    log.markGcQueued(victim);
    EXPECT_EQ(log.pickGcVictim(0.5), 0u);
    EXPECT_GT(log.unlinkSegment(victim), 0u);
    EXPECT_EQ(stats.vlog_segments_unlinked.load(), 1u);
}

// ---- Randomized separated-vs-inline equivalence ----

/**
 * Drive the same randomized workload (puts/overwrites/deletes with
 * value sizes straddling the threshold) into a separated store and an
 * inline store, and require identical visible state through gets and
 * scans. The separated run must actually separate (vlog_appends > 0).
 */
TEST(ValueLogTest, RandomizedSeparatedVsInlineEquivalence)
{
    for (uint64_t seed : {1u, 42u, 20260808u}) {
        sim::NvmDevice nvm_sep, nvm_inl;
        MioDB sep(vlogOptions(64), &nvm_sep);
        MioDB inl(vlogOptions(0), &nvm_inl);
        std::map<std::string, std::string> model;
        Random rng(seed);
        for (int i = 0; i < 3000; i++) {
            std::string k = makeKey(rng.uniform(400));
            uint32_t roll = rng.uniform(100);
            if (roll < 15 && !model.empty()) {
                ASSERT_TRUE(sep.remove(Slice(k)).isOk());
                ASSERT_TRUE(inl.remove(Slice(k)).isOk());
                model.erase(k);
                continue;
            }
            // Sizes straddle the 64-byte threshold: short inline
            // values, mid-size separated, and multi-KB separated.
            size_t len = 8 + rng.uniform(24);
            if (roll >= 40 && roll < 80)
                len = 64 + rng.uniform(192);
            else if (roll >= 80)
                len = 1024 + rng.uniform(2048);
            std::string v(len, 'a' + static_cast<char>(i % 26));
            v += "#" + std::to_string(i);
            ASSERT_TRUE(sep.put(Slice(k), Slice(v)).isOk());
            ASSERT_TRUE(inl.put(Slice(k), Slice(v)).isOk());
            model[k] = v;
        }
        sep.waitIdle();
        inl.waitIdle();
        EXPECT_GT(sep.stats().vlog_appends.load(), 0u) << seed;
        EXPECT_EQ(inl.stats().vlog_appends.load(), 0u) << seed;

        std::string got;
        for (const auto &[k, expect] : model) {
            ASSERT_TRUE(sep.get(Slice(k), &got).isOk()) << k;
            EXPECT_EQ(got, expect) << k;
            ASSERT_TRUE(inl.get(Slice(k), &got).isOk()) << k;
            EXPECT_EQ(got, expect) << k;
        }
        std::vector<std::pair<std::string, std::string>> a, b;
        ASSERT_TRUE(sep.scan(Slice(makeKey(0)), 400, &a).isOk());
        ASSERT_TRUE(inl.scan(Slice(makeKey(0)), 400, &b).isOk());
        EXPECT_EQ(a, b) << seed;
        ASSERT_EQ(a.size(), model.size()) << seed;
    }
}

TEST(ValueLogTest, BelowThresholdStaysInline)
{
    sim::NvmDevice nvm;
    MioDB db(vlogOptions(512), &nvm);
    for (int i = 0; i < 500; i++)
        ASSERT_TRUE(
            db.put(Slice(makeKey(i)), Slice(std::string(100, 'v')))
                .isOk());
    db.waitIdle();
    EXPECT_EQ(db.stats().vlog_appends.load(), 0u);
    EXPECT_EQ(db.stats().vlog_segments_live.load(), 0u);
}

// ---- GC reclamation ----

TEST(ValueLogTest, GcReclaimsUnderOverwriteHeavyLoad)
{
    sim::NvmDevice nvm;
    MioOptions o = vlogOptions(64);
    o.vlog_gc_trigger_ratio = 0.6;
    MioDB db(o, &nvm);
    std::string v1(700, 'x'), v2(700, 'y');
    // Overwrite the same small key set over and over: every round
    // makes the previous round's vlog records garbage.
    for (int round = 0; round < 30; round++) {
        for (int i = 0; i < 40; i++) {
            const std::string &v = (round % 2 != 0) ? v1 : v2;
            ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(v)).isOk());
        }
    }
    // Deletes kill the rest.
    for (int i = 20; i < 40; i++)
        ASSERT_TRUE(db.remove(Slice(makeKey(i))).isOk());
    db.waitIdle();

    const StatsSnapshot s = snapshotOf(db.stats());
    EXPECT_GT(s.vlog_gc_passes, 0u);
    EXPECT_GT(s.vlog_gc_reclaimed_bytes, 0u);
    EXPECT_GT(s.vlog_segments_unlinked, 0u);
    // Live segments stay bounded near the live data size, not the
    // total appended volume (~30x40x700B appended, ~20 keys live).
    EXPECT_LT(s.vlog_segments_live, 8u);

    // Survivors are intact after relocation.
    std::string got;
    for (int i = 0; i < 20; i++) {
        ASSERT_TRUE(db.get(Slice(makeKey(i)), &got).isOk()) << i;
        EXPECT_EQ(got.size(), 700u) << i;
    }
    for (int i = 20; i < 40; i++)
        EXPECT_TRUE(db.get(Slice(makeKey(i)), &got).isNotFound()) << i;
}

// ---- Snapshot interaction ----

/**
 * A snapshot pinned before an overwrite wave must keep resolving the
 * old values for as long as it is held -- GC may relocate and queue
 * segments, but the unlink gate (oldestSnapshotSeq) cannot open. After
 * release, GC runs to completion and reclaims.
 */
TEST(ValueLogTest, PinnedSnapshotBlocksReclaimUntilRelease)
{
    sim::NvmDevice nvm;
    MioOptions o = vlogOptions(64);
    o.vlog_gc_trigger_ratio = 0.6;
    MioDB db(o, &nvm);
    for (int i = 0; i < 40; i++) {
        ASSERT_TRUE(
            db.put(Slice(makeKey(i)),
                   Slice("old-" + std::string(600, 'o') +
                         std::to_string(i)))
                .isOk());
    }
    db.waitIdle();
    Snapshot *snap = db.getSnapshot();
    ASSERT_NE(snap, nullptr);

    for (int round = 0; round < 20; round++) {
        for (int i = 0; i < 40; i++) {
            ASSERT_TRUE(
                db.put(Slice(makeKey(i)),
                       Slice("new-" + std::string(600, 'n') +
                             std::to_string(i)))
                    .isOk());
        }
    }
    db.waitIdle();

    // The pinned view still reads every pre-overwrite value through
    // whatever pointers it captured.
    std::vector<std::pair<std::string, std::string>> rows;
    ASSERT_TRUE(db.scanAt(snap, Slice(makeKey(0)), 40, &rows).isOk());
    ASSERT_EQ(rows.size(), 40u);
    for (int i = 0; i < 40; i++) {
        EXPECT_EQ(rows[i].first, makeKey(i));
        EXPECT_EQ(rows[i].second.compare(0, 4, "old-"), 0) << i;
    }

    // While the pin holds, merges retain the old versions (so their
    // pointers are never dropped) and any queued unlink stays gated:
    // nothing may be reclaimed yet.
    EXPECT_EQ(snapshotOf(db.stats()).vlog_segments_unlinked, 0u);

    db.releaseSnapshot(snap);
    // Post-release churn lets merges collapse the retained versions,
    // which is what marks the old vlog records dead and arms GC.
    for (int round = 0; round < 20; round++) {
        for (int i = 0; i < 40; i++) {
            ASSERT_TRUE(
                db.put(Slice(makeKey(i)),
                       Slice("new-" + std::string(600, 'n') +
                             std::to_string(i)))
                    .isOk());
        }
    }
    db.waitIdle();
    const StatsSnapshot after = snapshotOf(db.stats());
    EXPECT_GT(after.vlog_segments_unlinked, 0u);
    EXPECT_GT(after.vlog_gc_reclaimed_bytes, 0u);

    // Current reads see the last overwrite.
    std::string got;
    for (int i = 0; i < 40; i += 7) {
        ASSERT_TRUE(db.get(Slice(makeKey(i)), &got).isOk()) << i;
        EXPECT_EQ(got.compare(0, 4, "new-"), 0) << i;
    }
}

/** Separated values survive a clean close/reopen and a vlog rescan. */
TEST(ValueLogTest, CloseNeverRacesAGcRelocation)
{
    // A merge's drop hook may schedule a GC job at any moment. If it
    // passes the "GC enabled" check just before a closing store turns
    // GC off and submits just after the close's GC-idle wait, the job
    // relocates through the commit path after the close has handed
    // the active WAL segment off -- a null segment append. Many short
    // GC-heavy lives on the threaded scheduler hit that window.
    MioOptions o;
    o.memtable_size = 8 << 10;
    o.elastic_levels = 2;
    o.max_immutable_memtables = 4;
    o.value_separation_threshold = 16;
    o.vlog_segment_bytes = 4 << 10;
    o.vlog_gc_trigger_ratio = 0.95;
    for (int life = 0; life < 300; life++) {
        sim::NvmDevice nvm;
        MioDB db(o, &nvm);
        Random rnd(life + 1);
        for (int i = 0; i < 300; i++) {
            std::string v = "value-" + std::to_string(i) +
                            "-xxxxxxxxxxxxxxxxxxxxxxxx";
            ASSERT_TRUE(
                db.put(Slice(makeKey(rnd.uniform(60))), Slice(v)).isOk());
        }
    }
}

TEST(ValueLogTest, SeparatedValuesSurviveReopen)
{
    sim::NvmDevice nvm;
    std::shared_ptr<NvmState> state;
    std::map<std::string, std::string> model;
    {
        MioDB db(vlogOptions(64), &nvm);
        state = db.nvmState();
        Random rng(99);
        for (int i = 0; i < 1200; i++) {
            std::string k = makeKey(rng.uniform(300));
            std::string v(64 + rng.uniform(1024),
                          'a' + static_cast<char>(i % 26));
            ASSERT_TRUE(db.put(Slice(k), Slice(v)).isOk());
            model[k] = v;
        }
        db.waitIdle();
        ASSERT_GT(db.stats().vlog_appends.load(), 0u);
    }
    MioDB db(vlogOptions(64), &nvm, nullptr, nullptr, state);
    std::string got;
    for (const auto &[k, expect] : model) {
        ASSERT_TRUE(db.get(Slice(k), &got).isOk()) << k;
        EXPECT_EQ(got, expect) << k;
    }
}

} // namespace
} // namespace mio::miodb
