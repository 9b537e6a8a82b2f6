/**
 * @file
 * Key-value separation suite (`ctest -L vlog`): the ValueLog unit
 * surface (append/read/checksum/GC victim picking), a randomized
 * separated-vs-inline equivalence battery, GC reclamation under
 * overwrite/delete-heavy load, and the snapshot-vs-GC interaction
 * (a pinned snapshot must keep resolving pre-relocation pointers).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
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

// ---- Seal footers and recovery ----

constexpr size_t kSegment = 4 << 10;
constexpr size_t kFrameHeader = 12;
constexpr size_t kFooter = 20;  // [u64 used][u64 payload][u32 crc]

/** One acknowledged append and where it landed. */
struct Appended {
    std::string key;
    std::string value;
    ValuePointer ptr;
};

/**
 * Append @p n values of 1 to min(@p max_len, kSegment / 8) random
 * bytes under fresh keys. When @p max_len exceeds a segment, about one
 * value in ten is oversized (up to @p max_len) and gets its own
 * segment.
 */
void
appendRandom(ValueLog *log, Random *rng, int n, size_t max_len,
             std::vector<Appended> *out)
{
    for (int i = 0; i < n; i++) {
        Appended a;
        a.key = makeKey(out->size());
        size_t len = 1 + rng->uniform(std::min(max_len, kSegment / 8));
        if (max_len > kSegment && rng->oneIn(10))
            len = kSegment + rng->uniform(max_len - kSegment);
        rng->fillString(&a.value, len);
        ASSERT_TRUE(
            log->append(Slice(a.key), Slice(a.value), &a.ptr).isOk());
        out->push_back(std::move(a));
    }
}

/** A segment's tail (`used`): frames tile it from offset 0. */
uint64_t
segmentTail(const std::vector<Appended> &recs, uint64_t segment_id)
{
    uint64_t tail = 0;
    for (const Appended &a : recs) {
        if (a.ptr.segment_id == segment_id)
            tail = std::max(tail, a.ptr.offset + a.ptr.length);
    }
    return tail;
}

/** A segment's footer: its last kFooter bytes. A segment is kSegment
 *  long unless it was opened for one oversized frame. */
char *
footerOf(const ValueLog &log, const std::vector<Appended> &recs,
         uint64_t segment_id)
{
    const size_t capacity =
        std::max(kSegment, segmentTail(recs, segment_id) + kFooter);
    return log.segmentBase(segment_id) + capacity - kFooter;
}

std::set<uint64_t>
segmentIds(const std::vector<Appended> &recs)
{
    std::set<uint64_t> ids;
    for (const Appended &a : recs)
        ids.insert(a.ptr.segment_id);
    return ids;
}

/**
 * Every acknowledged value reads back, and each segment's walk and
 * live estimate cover exactly the records appended to it.
 */
void
expectRecovered(const ValueLog &log, const std::vector<Appended> &recs)
{
    std::string v;
    for (const Appended &a : recs) {
        ASSERT_TRUE(log.read(Slice(a.key), a.ptr, &v).isOk()) << a.key;
        EXPECT_EQ(v, a.value) << a.key;
    }
    for (uint64_t id : segmentIds(recs)) {
        std::vector<ValueLog::Record> got;
        ASSERT_TRUE(log.collectRecords(id, &got)) << "segment " << id;
        uint64_t payload = 0;
        size_t i = 0;
        for (const Appended &a : recs) {
            if (a.ptr.segment_id != id)
                continue;
            ASSERT_LT(i, got.size()) << "segment " << id;
            EXPECT_EQ(got[i].key, a.key);
            EXPECT_EQ(got[i].ptr, a.ptr);
            payload += a.ptr.length;
            i++;
        }
        EXPECT_EQ(got.size(), i) << "segment " << id;
        EXPECT_EQ(log.liveBytes(id), payload) << "segment " << id;
    }
}

/** NVM bytes that one recoverAfterCrash() charges. */
uint64_t
recoveryBytesRead(sim::NvmDevice *nvm, ValueLog *log)
{
    const uint64_t before = nvm->meters().bytes_read;
    log->recoverAfterCrash();
    return nvm->meters().bytes_read - before;
}

TEST(ValueLogTest, ReopenReadsSealedSegmentsByTheirFooters)
{
    // N sealed segments and a head: a reopen rescans the head and
    // reads one footer per segment, whatever the sealed bytes.
    for (size_t n_sealed : {1u, 32u}) {
        SCOPED_TRACE(testing::Message() << n_sealed << " sealed");
        sim::NvmDevice nvm;
        StatsCounters stats;
        ValueLog log(&nvm, &stats, kSegment);
        Random rng(n_sealed);
        std::vector<Appended> recs;
        while (log.segmentCount() < n_sealed + 1)
            appendRandom(&log, &rng, 1, 600, &recs);
        appendRandom(&log, &rng, 2, 600, &recs);
        ASSERT_EQ(log.segmentCount(), n_sealed + 1);

        const uint64_t head_used =
            segmentTail(recs, recs.back().ptr.segment_id);
        const uint64_t read = recoveryBytesRead(&nvm, &log);
        EXPECT_GE(read, head_used);
        EXPECT_LE(read, head_used + (n_sealed + 1) * kFooter);
        expectRecovered(log, recs);
        // Recovery rewrote nothing: a second reopen costs the same.
        EXPECT_EQ(recoveryBytesRead(&nvm, &log), read);
    }
}

TEST(ValueLogTest, FooterStateMatchesAForcedRescan)
{
    // Two logs take the same appends, oversized ones included. In the
    // second every footer is damaged, which forces a rescan of every
    // segment; both must recover the appended records exactly, and
    // place the next append at the same spot.
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        sim::NvmDevice nvm_a, nvm_b;
        StatsCounters stats_a, stats_b;
        ValueLog a(&nvm_a, &stats_a, kSegment);
        ValueLog b(&nvm_b, &stats_b, kSegment);
        Random rng_a(seed), rng_b(seed);
        std::vector<Appended> recs_a, recs_b;
        appendRandom(&a, &rng_a, 150, 3 * kSegment, &recs_a);
        appendRandom(&b, &rng_b, 150, 3 * kSegment, &recs_b);
        ASSERT_GT(a.segmentCount(), 10u);

        uint64_t all_tails = 0;
        const uint64_t head = recs_b.back().ptr.segment_id;
        for (uint64_t id : segmentIds(recs_b)) {
            all_tails += segmentTail(recs_b, id);
            if (id != head) {
                nvm_b.injectBitFlipAt(footerOf(b, recs_b, id),
                                      id % kFooter,
                                      static_cast<int>(id % 8));
            }
        }
        EXPECT_LE(recoveryBytesRead(&nvm_a, &a),
                  segmentTail(recs_a, head) + a.segmentCount() * kFooter);
        EXPECT_GE(recoveryBytesRead(&nvm_b, &b), all_tails);
        expectRecovered(a, recs_a);
        expectRecovered(b, recs_b);

        ValuePointer next_a, next_b;
        ASSERT_TRUE(a.append(Slice("next"), Slice("v"), &next_a).isOk());
        ASSERT_TRUE(b.append(Slice("next"), Slice("v"), &next_b).isOk());
        EXPECT_EQ(next_a, next_b);
    }
}

TEST(ValueLogTest, DamagedFooterFallsBackToRescan)
{
    // Every bit of a sealed segment's footer is flipped in turn, each
    // in a fresh log. Recovery must rescan that segment, recover the
    // same state, and seal it again, so the next reopen reads only
    // footers and the head.
    for (size_t bit = 0; bit < 8 * kFooter; bit++) {
        SCOPED_TRACE(testing::Message() << "footer bit " << bit);
        sim::NvmDevice nvm;
        StatsCounters stats;
        ValueLog log(&nvm, &stats, kSegment);
        Random rng(17);
        std::vector<Appended> recs;
        while (log.segmentCount() < 4)
            appendRandom(&log, &rng, 1, 600, &recs);
        const uint64_t victim = recs.front().ptr.segment_id + 1;
        nvm.injectBitFlipAt(footerOf(log, recs, victim), bit / 8,
                            static_cast<int>(bit % 8));

        const uint64_t head_used =
            segmentTail(recs, recs.back().ptr.segment_id);
        EXPECT_GE(recoveryBytesRead(&nvm, &log),
                  head_used + segmentTail(recs, victim));
        expectRecovered(log, recs);
        EXPECT_LE(recoveryBytesRead(&nvm, &log),
                  head_used + log.segmentCount() * kFooter);
        expectRecovered(log, recs);
    }
}

TEST(ValueLogTest, SealedFrameDamageIsCaughtAfterReopen)
{
    // A bit flip inside a sealed segment's middle frame: the reopen
    // takes the segment's tail from its footer, so the damaged key
    // reads corruption while the frames on both sides stay readable.
    // The scrubber counts the damage, and GC's walk reports it.
    sim::NvmDevice nvm;
    StatsCounters stats;
    ValueLog log(&nvm, &stats, kSegment);
    Random rng(5);
    std::vector<Appended> recs;
    while (log.segmentCount() < 2)
        appendRandom(&log, &rng, 1, 300, &recs);
    const uint64_t sealed = recs.front().ptr.segment_id;
    size_t in_sealed = 0;
    while (recs[in_sealed].ptr.segment_id == sealed)
        in_sealed++;
    ASSERT_GE(in_sealed, 3u);
    const size_t mid = in_sealed / 2;
    nvm.injectBitFlipAt(log.segmentBase(sealed) + recs[mid].ptr.offset,
                        recs[mid].ptr.length / 2, 3);

    log.recoverAfterCrash();
    std::string v;
    for (size_t i = 0; i < recs.size(); i++) {
        Status s = log.read(Slice(recs[i].key), recs[i].ptr, &v);
        if (i == mid) {
            EXPECT_TRUE(s.isCorruption()) << i;
            continue;
        }
        ASSERT_TRUE(s.isOk()) << i;
        EXPECT_EQ(v, recs[i].value) << i;
    }
    EXPECT_EQ(log.scrub(), 1u);
    std::vector<ValueLog::Record> walked;
    EXPECT_FALSE(log.collectRecords(sealed, &walked));
    EXPECT_EQ(walked.size(), mid);
}

TEST(ValueLogTest, CrashAtSealLeavesTheSegmentToTheRescan)
{
    // Power fails between the seal footer's write and its persist:
    // the footer is rolled back, so the reopen rescans the segment
    // and keeps it as the head. The next append seals it for good.
    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    StatsCounters stats;
    ValueLog log(&nvm, &stats, kSegment);
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();
    fp.armCrash("vlog.seal", 1);
    Random rng(3);
    std::vector<Appended> recs;
    bool crashed = false;
    for (int i = 0; i < 100 && !crashed; i++) {
        try {
            appendRandom(&log, &rng, 1, 300, &recs);
        } catch (const sim::SimCrash &) {
            crashed = true;
        }
    }
    fp.disarmAll();
    ASSERT_TRUE(crashed) << "vlog.seal never fired";
    ASSERT_EQ(log.segmentCount(), 1u);
    nvm.discardUnpersisted();

    const uint64_t first = recs.front().ptr.segment_id;
    EXPECT_GE(recoveryBytesRead(&nvm, &log), segmentTail(recs, first));
    expectRecovered(log, recs);

    appendRandom(&log, &rng, 1, 300, &recs);
    ASSERT_EQ(log.segmentCount(), 2u);
    ASSERT_NE(recs.back().ptr.segment_id, first);
    EXPECT_LE(recoveryBytesRead(&nvm, &log),
              segmentTail(recs, recs.back().ptr.segment_id) +
                  2 * kFooter);
    expectRecovered(log, recs);
}

TEST(ValueLogTest, StaleFooterInARecycledRegionIsIgnored)
{
    // Two logs share one device, as shards do, and number their
    // segments alike. A sealed segment of the first is unlinked; the
    // second's head, which may reuse that region, must not adopt the
    // footer left in it when a crash leaves the head footerless.
    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    StatsCounters stats_a, stats_b;
    ValueLog a(&nvm, &stats_a, kSegment);
    ValueLog b(&nvm, &stats_b, kSegment);
    Random rng(23);
    std::vector<Appended> recs_a, recs_b;
    while (a.segmentCount() < 2)
        appendRandom(&a, &rng, 1, 600, &recs_a);
    const uint64_t sealed = recs_a.front().ptr.segment_id;
    ASSERT_GT(a.unlinkSegment(sealed), 0u);
    appendRandom(&b, &rng, 2, 600, &recs_b);
    ASSERT_EQ(recs_b.front().ptr.segment_id, sealed);
    nvm.discardUnpersisted();
    b.recoverAfterCrash();
    expectRecovered(b, recs_b);
    appendRandom(&b, &rng, 1, 600, &recs_b);
    EXPECT_EQ(recs_b.back().ptr.segment_id, sealed);
    expectRecovered(b, recs_b);
}

TEST(ValueLogTest, ReopenKeepsAppendingToTheRecoveredHead)
{
    // Crash/reopen cycles with a few appends between them: the
    // recovered head takes the next appends, so the log grows with
    // the bytes appended, not with the number of reopens.
    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    StatsCounters stats;
    ValueLog log(&nvm, &stats, kSegment);
    Random rng(11);
    std::vector<Appended> recs;
    for (int cycle = 0; cycle < 20; cycle++) {
        appendRandom(&log, &rng, 10, 200, &recs);
        nvm.discardUnpersisted();
        log.recoverAfterCrash();
    }
    const uint64_t appended = stats.vlog_appended_bytes.load();
    EXPECT_LE(log.segmentCount(), (appended + kSegment - 1) / kSegment + 1);
    expectRecovered(log, recs);
}

TEST(ValueLogTest, GcKeepsASegmentWithADamagedFrame)
{
    // GC's walk of a victim stops at a damaged frame and cannot see
    // the records past it. Those values are still referenced, so the
    // segment must stay and they must keep reading back.
    sim::NvmDevice nvm;
    MioOptions o = vlogOptions(64);
    o.memtable_size = 4 << 10;
    o.vlog_segment_bytes = kSegment;
    o.vlog_gc_trigger_ratio = 0.95;
    o.deterministic_background = true;
    MioDB db(o, &nvm);
    std::map<std::string, std::string> model;
    for (int i = 0; i < 60; i++) {
        std::string v = std::string(200, 'a' + i % 26) + std::to_string(i);
        ASSERT_TRUE(db.put(Slice(makeKey(i)), Slice(v)).isOk());
        model[makeKey(i)] = v;
    }
    db.waitIdle();
    ValueLog *vlog = db.nvmState()->vlog.get();
    std::vector<ValueLog::Record> sealed;
    ASSERT_TRUE(vlog->collectRecords(1, &sealed));
    ASSERT_GE(sealed.size(), 6u);
    const size_t mid = sealed.size() / 2;
    nvm.injectBitFlipAt(vlog->segmentBase(1) + sealed[mid].ptr.offset, 0,
                        1);

    // Overwrite the records before the damage until merges count them
    // dead and GC takes the segment as its victim.
    for (int round = 0; round < 40; round++) {
        for (size_t i = 0; i < mid; i++) {
            std::string v = "new-" + std::to_string(round) +
                             std::string(100, 'n');
            ASSERT_TRUE(db.put(Slice(sealed[i].key), Slice(v)).isOk());
            model[sealed[i].key] = v;
        }
    }
    db.waitIdle();
    EXPECT_GT(db.stats().vlog_gc_passes.load(), 0u);
    EXPECT_NE(vlog->segmentBase(1), nullptr);

    std::string got;
    for (const auto &[k, expect] : model) {
        Status s = db.get(Slice(k), &got);
        if (k == sealed[mid].key) {
            EXPECT_TRUE(s.isCorruption()) << k;
            continue;
        }
        ASSERT_TRUE(s.isOk()) << k << ": " << s.toString();
        EXPECT_EQ(got, expect) << k;
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
