/** @file Exhaustive crash-consistency harness (failpoint sweep).
 *
 *  Two complementary strategies:
 *   1. Deterministic sweep: for every canonical failpoint, run a
 *      scripted workload, crash exactly there, discard unpersisted
 *      NVM bytes, reopen, and check the recovered state against an
 *      in-memory reference model (prefix consistency + batch/group
 *      atomicity + no duplicate or resurrected keys).
 *   2. Randomized stress: many seeds, random workload, crash on a
 *      random Nth failpoint hit anywhere in the store, same checks.
 *
 *  Invariant encoding: a single-threaded workload stops at its first
 *  failed op, so at most ONE op is in flight at the crash. The
 *  recovered store must equal model(acked ops) or model(acked ops +
 *  the in-flight op) -- nothing else. That one equality covers
 *  prefix consistency (acked ops never vanish), atomicity (the
 *  in-flight batch appears wholly or not at all), and resurrection /
 *  duplication (no third state matches either model).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "miodb/miodb.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::miodb {
namespace {

MioOptions
sweepOptions(bool ssd_mode)
{
    MioOptions o;
    o.memtable_size = 8 << 10;  // rotate + flush often
    o.elastic_levels = 2;       // L0 merges, L1 migrates
    o.max_immutable_memtables = 4;
    // Key-value separation tuned so the sweep's 24-48 byte values
    // separate, segments turn over fast, and almost any dead byte
    // makes a GC victim -- the vlog.* failpoints must be reachable.
    o.value_separation_threshold = 16;
    o.vlog_segment_bytes = 4 << 10;
    o.vlog_gc_trigger_ratio = 0.95;
    // MIO_CRASH_DETERMINISTIC=1: run maintenance on the scheduler's
    // deterministic inline mode -- no worker threads, jobs execute in
    // strict priority order on this thread inside waitUntil()/drain().
    // Every failpoint hit count is then a pure function of the
    // workload, so a failing seed replays to the identical crash site.
    if (const char *det = getenv("MIO_CRASH_DETERMINISTIC"))
        o.deterministic_background = det[0] != '0';
    if (ssd_mode) {
        o.use_ssd_repository = true;
        o.ssd_lsm.sstable_target_size = 8 << 10;
        o.ssd_lsm.level1_max_bytes = 32 << 10;
    }
    return o;
}

/** Reference model: key -> value; absent means deleted/never written. */
using Model = std::map<std::string, std::string>;

/** One logical store op: a single put/remove, or an atomic batch. */
struct ModelOp {
    struct Item {
        bool is_put;
        std::string key;
        std::string value;
    };
    std::vector<Item> items;
    bool is_batch = false;
};

void
applyToModel(Model *m, const ModelOp &op)
{
    for (const auto &item : op.items) {
        if (item.is_put)
            (*m)[item.key] = item.value;
        else
            m->erase(item.key);
    }
}

std::vector<ModelOp>
makeWorkload(uint64_t seed, int n_ops, int key_space)
{
    Random rnd(seed);
    std::vector<ModelOp> ops;
    ops.reserve(n_ops);
    auto make_item = [&](int op_idx) {
        ModelOp::Item item;
        item.key = makeKey(rnd.uniform(key_space));
        item.is_put = !rnd.oneIn(6);
        if (item.is_put) {
            item.value = "s" + std::to_string(seed) + "-o" +
                         std::to_string(op_idx) + "-";
            std::string filler;
            rnd.fillString(&filler, 24 + rnd.uniform(24));
            item.value += filler;
        }
        return item;
    };
    for (int i = 0; i < n_ops; i++) {
        ModelOp op;
        if (rnd.oneIn(8)) {
            op.is_batch = true;
            int batch_len = 3 + static_cast<int>(rnd.uniform(4));
            for (int j = 0; j < batch_len; j++)
                op.items.push_back(make_item(i));
        } else {
            op.items.push_back(make_item(i));
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

std::set<std::string>
touchedKeys(const std::vector<ModelOp> &ops)
{
    std::set<std::string> keys;
    for (const auto &op : ops)
        for (const auto &item : op.items)
            keys.insert(item.key);
    return keys;
}

Status
execOp(MioDB *db, const ModelOp &op)
{
    if (op.is_batch) {
        WriteBatch batch;
        for (const auto &item : op.items) {
            if (item.is_put)
                batch.put(Slice(item.key), Slice(item.value));
            else
                batch.remove(Slice(item.key));
        }
        return db->write(batch);
    }
    const ModelOp::Item &item = op.items[0];
    return item.is_put ? db->put(Slice(item.key), Slice(item.value))
                       : db->remove(Slice(item.key));
}

struct ExecResult {
    Model acked;                        //!< model of acknowledged ops
    const ModelOp *inflight = nullptr;  //!< first failed op (if any)
};

/** Run ops until the first failure (a crash freezes the store). */
ExecResult
runWorkload(MioDB *db, const std::vector<ModelOp> &ops)
{
    ExecResult r;
    for (const auto &op : ops) {
        if (!execOp(db, op).isOk()) {
            r.inflight = &op;
            break;
        }
        applyToModel(&r.acked, op);
    }
    return r;
}

/** True if @p db's state over @p keys equals @p m exactly. */
bool
modelMatches(MioDB *db, const Model &m, const std::set<std::string> &keys,
             std::string *why)
{
    for (const auto &key : keys) {
        std::string v;
        Status s = db->get(Slice(key), &v);
        auto it = m.find(key);
        if (it == m.end()) {
            if (!s.isNotFound()) {
                *why = "key " + key + " should be absent, got " +
                       (s.isOk() ? "value " + v : s.toString());
                return false;
            }
        } else {
            if (!s.isOk()) {
                *why = "key " + key + " lost (" + s.toString() + ")";
                return false;
            }
            if (v != it->second) {
                *why = "key " + key + " has wrong value";
                return false;
            }
        }
    }
    return true;
}

/**
 * The crash-consistency invariant: recovered state matches the acked
 * model, or (only when an op was in flight) acked + that whole op.
 */
void
expectRecoveredState(MioDB *db, const ExecResult &run,
                     const std::set<std::string> &keys,
                     const std::string &label)
{
    // Post-recovery memory sweep: the charges the reopened store
    // rebuilt (memtable arenas, NVM buffer, vlog capacity)
    // must balance against the governor's total before the
    // user-visible state is even compared.
    EXPECT_TRUE(db->memoryAccountingConsistent()) << label;

    std::string why_base;
    if (modelMatches(db, run.acked, keys, &why_base))
        return;
    if (run.inflight != nullptr) {
        Model with_inflight = run.acked;
        applyToModel(&with_inflight, *run.inflight);
        std::string why_alt;
        if (modelMatches(db, with_inflight, keys, &why_alt))
            return;
        FAIL() << label << ": recovered state matches neither model; "
               << "vs acked: " << why_base
               << "; vs acked+inflight: " << why_alt;
    }
    FAIL() << label << ": recovered state diverges from acked model: "
           << why_base;
}

/**
 * Full crash cycle for one armed failpoint: scripted workload, crash,
 * shadow discard, reopen + verify, post-recovery writes, clean close,
 * final reopen. @p require_fire asserts the point was actually hit
 * (catches canonical-list rot).
 */
void
sweepOnePoint(const char *point, uint64_t nth, bool ssd_mode,
              bool require_fire)
{
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();

    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    sim::SsdDevice ssd;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    const MioOptions opts = sweepOptions(ssd_mode);

    auto workload = makeWorkload(/*seed=*/0xC0FFEE, 500, 150);
    const std::set<std::string> keys = touchedKeys(workload);
    ExecResult run;
    {
        MioDB db(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry);
        state = db.nvmState();
        fp.armCrash(point, nth);
        run = runWorkload(&db, workload);
        if (!fp.fired(point)) {
            // The armed point sits on a background path the workload
            // did not reach yet: drain compactions until it fires.
            db.waitIdle();
        }
        if (require_fire) {
            ASSERT_TRUE(fp.fired(point)) << point << " never fired";
        }
        fp.disarmAll();
        db.simulateCrash();
    }
    // Power failure: written-but-unpersisted NVM bytes are lost.
    nvm.discardUnpersisted();

    {
        MioDB db2(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry,
                  state);
        expectRecoveredState(&db2, run, keys,
                             std::string(point) + "@" +
                                 std::to_string(nth));
        if (::testing::Test::HasFatalFailure())
            return;
        // The recovered store must stay fully usable.
        for (int i = 0; i < 10; i++) {
            ASSERT_TRUE(db2.put(Slice("post-" + makeKey(i)),
                                Slice("pv" + std::to_string(i)))
                            .isOk())
                << point;
        }
        // Clean close: flushes everything, truncates the WAL.
    }
    MioDB db3(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry, state);
    std::string v;
    for (int i = 0; i < 10; i++) {
        ASSERT_TRUE(db3.get(Slice("post-" + makeKey(i)), &v).isOk())
            << point;
        EXPECT_EQ(v, "pv" + std::to_string(i));
    }
}

/**
 * wal.replay.frame only fires while a reopen replays surviving WAL
 * records; the workload-phase sweeps (armed on a freshly opened store)
 * can never reach it, so it gets a dedicated leg instead.
 */
bool
recoveryOnlyPoint(const char *p)
{
    return std::string(p) == "wal.replay.frame";
}

/** Canonical points that fire in the PM (in-memory repository) mode. */
std::vector<const char *>
pmModePoints()
{
    std::vector<const char *> points;
    for (const char *p : sim::kCrashPoints) {
        if (std::string(p).rfind("ssd.", 0) != 0 &&
            !recoveryOnlyPoint(p))
            points.push_back(p);
    }
    return points;
}

/** Canonical points that fire in SSD (hierarchy) mode. */
std::vector<const char *>
ssdModePoints()
{
    std::vector<const char *> points;
    for (const char *p : sim::kCrashPoints) {
        if (std::string(p) != "lcm.publish_node" &&  // PmRepository-only
            !recoveryOnlyPoint(p))
            points.push_back(p);
    }
    return points;
}

/**
 * Crash INSIDE recovery: run a workload, power-fail with WAL segments
 * still holding unflushed records, then reopen with wal.replay.frame
 * armed at its @p nth hit. The crash lands mid-replay (the constructor
 * throws after stopping the jobs it started); when the WAL holds fewer
 * records the reopened store power-fails right after open instead.
 * Either way the doubly-crashed image must recover to the acked model
 * on a third open: no old segment is removed before the replay ends,
 * and re-applied records dedup by sequence.
 */
void
sweepReplayCrash(uint64_t nth, bool ssd_mode)
{
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();

    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    sim::SsdDevice ssd;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    const MioOptions opts = sweepOptions(ssd_mode);

    auto workload = makeWorkload(/*seed=*/0xC0FFEE, 500, 150);
    const std::set<std::string> keys = touchedKeys(workload);
    ExecResult run;
    {
        MioDB db(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry);
        state = db.nvmState();
        run = runWorkload(&db, workload);
        ASSERT_EQ(run.inflight, nullptr) << "clean phase crashed";
        db.simulateCrash();
    }
    nvm.discardUnpersisted();

    fp.armCrash("wal.replay.frame", nth);
    bool threw = false;
    try {
        MioDB db2(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry,
                  state);
        db2.simulateCrash();
    } catch (const sim::SimCrash &crash) {
        threw = true;
        EXPECT_EQ(crash.point(), "wal.replay.frame");
    }
    fp.disarmAll();
    if (nth == 1) {
        ASSERT_TRUE(threw) << "wal.replay.frame never fired";
    }
    nvm.discardUnpersisted();

    MioDB db3(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry, state);
    expectRecoveredState(&db3, run, keys,
                         "replay crash @" + std::to_string(nth));
}

TEST(CrashSweepTest, RecoveryPathSweep)
{
    for (bool ssd_mode : {false, true}) {
        for (uint64_t nth : {1u, 4u, 40u}) {
            SCOPED_TRACE("wal.replay.frame@" + std::to_string(nth) +
                         (ssd_mode ? " ssd" : " pm"));
            sweepReplayCrash(nth, ssd_mode);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(CrashSweepTest, DeterministicSweepFirstHit)
{
    auto points = pmModePoints();
    ASSERT_GE(points.size(), 12u);
    for (const char *point : points) {
        SCOPED_TRACE(point);
        sweepOnePoint(point, /*nth=*/1, /*ssd_mode=*/false,
                      /*require_fire=*/true);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CrashSweepTest, DeterministicSweepLaterHit)
{
    // Crash on later hits: the store is mid-steady-state (populated
    // levels, WAL history, earlier merges done) rather than at first
    // contact. Points with fewer hits simply complete clean.
    for (uint64_t nth : {4u, 40u}) {
        for (const char *point : pmModePoints()) {
            SCOPED_TRACE(std::string(point) + "@" +
                         std::to_string(nth));
            sweepOnePoint(point, nth, /*ssd_mode=*/false,
                          /*require_fire=*/false);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(CrashSweepTest, SsdModeSweepFirstHit)
{
    for (const char *point : ssdModePoints()) {
        SCOPED_TRACE(point);
        sweepOnePoint(point, /*nth=*/1, /*ssd_mode=*/true,
                      /*require_fire=*/true);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CrashSweepTest, TrackingDryRunCoversCanonicalList)
{
    // Hit-count a clean run in both modes and check the canonical
    // list both ways: every listed point is reachable (no rot), and
    // no unlisted name shows up (no unregistered failpoints).
    auto &fp = sim::FailpointRegistry::instance();
    std::set<std::string> seen;
    for (bool ssd_mode : {false, true}) {
        fp.disarmAll();
        fp.setTracking(true);
        sim::NvmDevice nvm;
        sim::SsdDevice ssd;
        wal::WalRegistry registry;
        {
            MioDB db(sweepOptions(ssd_mode), &nvm,
                     ssd_mode ? &ssd : nullptr, &registry);
            auto workload = makeWorkload(0xC0FFEE, 500, 150);
            runWorkload(&db, workload);
            db.waitIdle();
        }
        for (const auto &p : fp.seenPoints())
            seen.insert(p);
        fp.disarmAll();
    }
    // wal.replay.frame only fires on a reopen with surviving WAL
    // records: crash mid-workload, then reopen.
    {
        fp.disarmAll();
        fp.setTracking(true);
        sim::NvmDevice nvm;
        nvm.setCrashShadow(true);
        wal::WalRegistry registry;
        std::shared_ptr<NvmState> state;
        auto workload = makeWorkload(0xC0FFEE, 300, 150);
        {
            MioDB db(sweepOptions(false), &nvm, nullptr, &registry);
            state = db.nvmState();
            runWorkload(&db, workload);
            db.simulateCrash();
        }
        nvm.discardUnpersisted();
        MioDB db2(sweepOptions(false), &nvm, nullptr, &registry, state);
        db2.waitIdle();
        for (const auto &p : fp.seenPoints())
            seen.insert(p);
        fp.disarmAll();
    }
    std::set<std::string> canonical;
    for (const char *p : sim::kCrashPoints)
        canonical.insert(p);
    for (const auto &p : seen)
        EXPECT_TRUE(canonical.count(p)) << "unlisted failpoint " << p;
    for (const auto &p : canonical)
        EXPECT_TRUE(seen.count(p)) << "unreachable failpoint " << p;
}

/**
 * Crash with a snapshot pinned: populate the store, pin a view and
 * freeze its expected contents, then crash at @p point while writes
 * and maintenance keep running. The pinned snapshot must read exactly
 * its frozen model BEFORE and AFTER the power-failure transition (the
 * pin holds MemTables, manifest epochs, and the repo version alive
 * through the mid-merge wreckage -- any divergence means a
 * use-after-free or a version dropped out from under the pin), and
 * recovery must match the usual crash-consistency invariant with no
 * resurrected entries.
 */
void
sweepOnePointPinned(const char *point, uint64_t nth, bool ssd_mode,
                    bool require_fire)
{
    auto &fp = sim::FailpointRegistry::instance();
    fp.disarmAll();

    sim::NvmDevice nvm;
    nvm.setCrashShadow(true);
    sim::SsdDevice ssd;
    wal::WalRegistry registry;
    std::shared_ptr<NvmState> state;
    const MioOptions opts = sweepOptions(ssd_mode);

    auto workload = makeWorkload(/*seed=*/0xBEEF, 500, 150);
    const std::set<std::string> keys = touchedKeys(workload);
    const std::vector<ModelOp> phase1(workload.begin(),
                                      workload.begin() + 250);
    const std::vector<ModelOp> phase2(workload.begin() + 250,
                                      workload.end());
    ExecResult run;
    {
        MioDB db(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry);
        state = db.nvmState();

        run = runWorkload(&db, phase1);
        ASSERT_EQ(run.inflight, nullptr) << "clean phase crashed";

        Snapshot *snap = db.getSnapshot();
        const Model frozen = run.acked;

        fp.armCrash(point, nth);
        ExecResult r2 = runWorkload(&db, phase2);
        if (!fp.fired(point))
            db.waitIdle();  // reach background-path points
        if (require_fire) {
            ASSERT_TRUE(fp.fired(point)) << point << " never fired";
        }
        fp.disarmAll();
        for (const auto &op : phase2) {
            if (&op == r2.inflight)
                break;
            applyToModel(&run.acked, op);
        }
        run.inflight = r2.inflight;

        auto check_pin = [&](const char *when) {
            std::vector<std::pair<std::string, std::string>> out;
            ASSERT_TRUE(
                db.scanAt(snap, Slice(makeKey(0)), 1000000, &out)
                    .isOk())
                << point << " " << when;
            ASSERT_EQ(out.size(), frozen.size())
                << point << " " << when;
            auto it = frozen.begin();
            for (const auto &[k, v] : out) {
                ASSERT_EQ(k, it->first) << point << " " << when;
                ASSERT_EQ(v, it->second) << point << " " << when;
                ++it;
            }
        };
        check_pin("post-crash-fire");
        if (::testing::Test::HasFatalFailure())
            return;
        db.simulateCrash();
        // The pin stays readable across the power-failure transition
        // (workers frozen mid-merge) and releases without touching
        // freed memory.
        check_pin("post-simulateCrash");
        if (::testing::Test::HasFatalFailure())
            return;
        db.releaseSnapshot(snap);
    }
    nvm.discardUnpersisted();

    MioDB db2(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry, state);
    expectRecoveredState(&db2, run, keys,
                         std::string("pinned ") + point + "@" +
                             std::to_string(nth));
}

/**
 * Segment unlinks are gated on the oldest snapshot: with the test's
 * pin held for the whole armed phase, the gate (correctly) never
 * opens, so the point cannot be required to fire here. The unpinned
 * sweeps assert its reachability.
 */
bool
pinnedMustFire(const char *point)
{
    return std::string(point) != "vlog.gc.before_unlink";
}

TEST(CrashSweepTest, PinnedSnapshotDeterministicSweep)
{
    for (const char *point : pmModePoints()) {
        SCOPED_TRACE(point);
        sweepOnePointPinned(point, /*nth=*/1, /*ssd_mode=*/false,
                            pinnedMustFire(point));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CrashSweepTest, PinnedSnapshotSsdModeSweep)
{
    for (const char *point : ssdModePoints()) {
        SCOPED_TRACE(point);
        sweepOnePointPinned(point, /*nth=*/1, /*ssd_mode=*/true,
                            pinnedMustFire(point));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CrashSweepTest, RandomizedCrashStressVsModel)
{
    // Crash on the Nth failpoint hit anywhere in the store, N random
    // per seed: the crash lands at arbitrary alignments between the
    // foreground, the flusher, and the compaction threads. Runs whose
    // N exceeds the workload's hit count complete clean and verify
    // the full model. MIO_CRASH_SEEDS scales the sweep up.
    const char *env = getenv("MIO_CRASH_SEEDS");
    const int n_seeds = env != nullptr ? atoi(env) : 56;
    auto &fp = sim::FailpointRegistry::instance();
    int crashes = 0;

    for (int seed = 1; seed <= n_seeds; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        fp.disarmAll();
        const bool ssd_mode = (seed % 8) == 0;
        const MioOptions opts = sweepOptions(ssd_mode);
        sim::NvmDevice nvm;
        nvm.setCrashShadow(true);
        sim::SsdDevice ssd;
        wal::WalRegistry registry;
        std::shared_ptr<NvmState> state;

        Random rnd(0x9E3779B97F4A7C15ULL * seed + 1);
        auto workload = makeWorkload(seed, 300, 120);
        const std::set<std::string> keys = touchedKeys(workload);
        ExecResult run;
        std::string crash_at;
        {
            MioDB db(opts, &nvm, ssd_mode ? &ssd : nullptr,
                     &registry);
            state = db.nvmState();
            fp.armCrashOnGlobalHit(1 + rnd.uniform(2000));
            run = runWorkload(&db, workload);
            if (!fp.lastCrashPoint().empty())
                crashes++;
            crash_at = fp.lastCrashPoint().empty()
                           ? "no crash"
                           : fp.lastCrashPoint();
            fp.disarmAll();
            db.simulateCrash();
        }
        nvm.discardUnpersisted();

        MioDB db2(opts, &nvm, ssd_mode ? &ssd : nullptr, &registry,
                  state);
        expectRecoveredState(&db2, run, keys,
                             "seed " + std::to_string(seed) +
                                 " (crash at " + crash_at + ")");
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The random dial must actually exercise crashes, not always
    // overshoot the workload's total hit count.
    EXPECT_GE(crashes, n_seeds / 4) << "crash dial tuned too high";
    std::cout << "[ sweep    ] " << n_seeds << " seeds, " << crashes
              << " crashed mid-run, " << (n_seeds - crashes)
              << " completed clean\n";
}

} // namespace
} // namespace mio::miodb
