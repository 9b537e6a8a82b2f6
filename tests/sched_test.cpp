/** @file BackgroundScheduler unit tests: class priorities, urgency
 *  escalation, delayed/periodic jobs, deterministic inline mode,
 *  SimCrash freeze semantics, and a concurrent submit/drain soak.
 *  Plus store-level parity: parallel compaction modes differ only in
 *  worker count, never in the merged end-state. */
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "miodb/miodb.h"
#include "sched/background_scheduler.h"
#include "sim/failpoint.h"
#include "util/random.h"

namespace mio::sched {
namespace {

using Clock = std::chrono::steady_clock;

BackgroundScheduler::Options
deterministicOptions()
{
    BackgroundScheduler::Options o;
    o.deterministic = true;
    return o;
}

TEST(SchedTest, DeterministicModeRunsInlineInPriorityOrder)
{
    BackgroundScheduler sched(deterministicOptions());
    ASSERT_TRUE(sched.deterministic());
    EXPECT_EQ(sched.workerCount(), 0);

    // Submission order is deliberately the reverse of priority order.
    std::vector<JobClass> ran;
    for (JobClass c : {JobClass::kScrub, JobClass::kWalRecycle,
                       JobClass::kSsdCompaction, JobClass::kZeroCopyMerge,
                       JobClass::kLazyCopyMerge, JobClass::kFlush})
        ASSERT_TRUE(sched.submit(c, [&ran, c] { ran.push_back(c); }));

    // Nothing runs until the owner enters a wait/drain primitive.
    EXPECT_EQ(sched.busyJobs(), 6u);
    EXPECT_TRUE(ran.empty());

    sched.drain();
    ASSERT_EQ(ran.size(), 6u);
    for (size_t i = 1; i < ran.size(); i++)
        EXPECT_LT(static_cast<int>(ran[i - 1]), static_cast<int>(ran[i]))
            << "priority inversion at position " << i;
    EXPECT_EQ(sched.busyJobs(), 0u);
}

TEST(SchedTest, UrgencyProbeLiftsClassAheadOfHigherPriority)
{
    BackgroundScheduler sched(deterministicOptions());
    std::atomic<bool> pressed{true};
    sched.setUrgencyProbe(JobClass::kLazyCopyMerge,
                          [&pressed] { return pressed.load(); });

    std::vector<JobClass> ran;
    // Flush normally outranks migration; the probe inverts that.
    ASSERT_TRUE(sched.submit(JobClass::kFlush, [&] {
        ran.push_back(JobClass::kFlush);
    }));
    ASSERT_TRUE(sched.submit(JobClass::kLazyCopyMerge, [&] {
        ran.push_back(JobClass::kLazyCopyMerge);
        pressed.store(false);  // pressure relieved by the migration
    }));
    ASSERT_TRUE(sched.submit(JobClass::kFlush, [&] {
        ran.push_back(JobClass::kFlush);
    }));

    sched.drain();
    ASSERT_EQ(ran.size(), 3u);
    // Urgent migration first; with the probe off, flushes resume
    // their base priority.
    EXPECT_EQ(ran[0], JobClass::kLazyCopyMerge);
    EXPECT_EQ(ran[1], JobClass::kFlush);
    EXPECT_EQ(ran[2], JobClass::kFlush);
}

TEST(SchedTest, DelayedJobsFastForwardInDeterministicMode)
{
    BackgroundScheduler sched(deterministicOptions());
    std::atomic<int> fired{0};
    ASSERT_TRUE(sched.submitAfter(JobClass::kZeroCopyMerge, 5,
                                  [&fired] { fired++; }));
    ASSERT_TRUE(sched.submitAfter(JobClass::kZeroCopyMerge, 10,
                                  [&fired] { fired++; }));
    EXPECT_EQ(fired.load(), 0);
    // drain() fast-forwards the delay clock rather than sleeping.
    auto start = Clock::now();
    sched.drain();
    EXPECT_EQ(fired.load(), 2);
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(2));
}

TEST(SchedTest, PriorityOrderHoldsWithSingleWorker)
{
    // One worker, jobs gated behind a blocker so the queue fills
    // before dispatch begins; dispatch must then follow class
    // priority, not submission order.
    BackgroundScheduler::Options o;
    o.num_workers = 1;
    BackgroundScheduler sched(o);

    std::mutex gate;
    gate.lock();
    std::atomic<bool> gate_running{false};
    ASSERT_TRUE(sched.submit(JobClass::kScrub, [&gate, &gate_running] {
        gate_running.store(true);
        gate.lock();  // held by the test until all jobs are queued
        gate.unlock();
    }));
    // The worker must hold the gate job before the others are queued,
    // or it could dispatch one of them ahead of it.
    while (!gate_running.load())
        std::this_thread::yield();

    std::mutex order_mu;
    std::vector<JobClass> ran;
    for (JobClass c : {JobClass::kWalRecycle, JobClass::kZeroCopyMerge,
                       JobClass::kFlush})
        ASSERT_TRUE(sched.submit(c, [&, c] {
            std::lock_guard<std::mutex> l(order_mu);
            ran.push_back(c);
        }));
    gate.unlock();
    sched.drain();

    ASSERT_EQ(ran.size(), 3u);
    EXPECT_EQ(ran[0], JobClass::kFlush);
    EXPECT_EQ(ran[1], JobClass::kZeroCopyMerge);
    EXPECT_EQ(ran[2], JobClass::kWalRecycle);
}

TEST(SchedTest, PeriodicJobFiresRepeatedlyUntilCancelled)
{
    BackgroundScheduler::Options o;
    o.num_workers = 1;
    BackgroundScheduler sched(o);

    std::atomic<int> passes{0};
    uint64_t id = sched.submitPeriodic(JobClass::kScrub, 2,
                                       [&passes] { passes++; });
    ASSERT_NE(id, 0u);

    WaitOptions wo;
    wo.has_deadline = true;
    wo.deadline = Clock::now() + std::chrono::seconds(10);
    wo.tick_ms = 1;
    ASSERT_TRUE(
        sched.waitUntil([&passes] { return passes.load() >= 3; }, wo));

    sched.cancelPeriodic(id);
    sched.drain();  // any in-flight pass finishes
    int settled = passes.load();
    // A cancelled registration never fires again: park well past
    // several intervals and re-check the counter.
    WaitOptions park;
    park.has_deadline = true;
    park.deadline = Clock::now() + std::chrono::milliseconds(20);
    park.tick_ms = 1;
    sched.waitUntil([] { return false; }, park);
    EXPECT_EQ(passes.load(), settled);
}

TEST(SchedTest, WaitUntilHonorsDeadline)
{
    BackgroundScheduler::Options o;
    o.num_workers = 1;
    BackgroundScheduler sched(o);
    WaitOptions wo;
    wo.has_deadline = true;
    wo.deadline = Clock::now() + std::chrono::milliseconds(30);
    wo.tick_ms = 1;
    EXPECT_FALSE(sched.waitUntil([] { return false; }, wo));
}

TEST(SchedTest, WaitUntilDetectsWedge)
{
    BackgroundScheduler::Options o;
    o.num_workers = 1;
    BackgroundScheduler sched(o);
    // Progress is flat while denials grow every sample: the classic
    // exhausted-device wedge. The wait must give up, not hang.
    std::atomic<uint64_t> denials{0};
    WaitOptions wo;
    wo.tick_ms = 1;
    wo.stagnant_limit = 5;
    wo.progress = [] { return uint64_t{7}; };
    wo.denials = [&denials] { return ++denials; };
    auto start = Clock::now();
    EXPECT_FALSE(sched.waitUntil([] { return false; }, wo));
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
}

TEST(SchedTest, SimCrashFreezesAndDropsQueuedWork)
{
    BackgroundScheduler::Options o;
    o.num_workers = 1;
    std::atomic<int> crash_fired{0};
    o.on_crash = [&crash_fired] { crash_fired++; };
    BackgroundScheduler sched(o);

    std::mutex gate;
    gate.lock();
    std::atomic<bool> ran_after{false};
    std::atomic<int> dropped{0};
    ASSERT_TRUE(sched.submit(JobClass::kFlush, [&gate] {
        gate.lock();
        gate.unlock();
        throw sim::SimCrash("sched_test.crash");
    }));
    // Queued behind the crashing job: must be dropped, not run.
    ASSERT_TRUE(sched.submit(
        JobClass::kScrub, [&ran_after] { ran_after.store(true); },
        [&dropped] { dropped++; }));
    gate.unlock();

    WaitOptions wo;
    wo.has_deadline = true;
    wo.deadline = Clock::now() + std::chrono::seconds(10);
    wo.tick_ms = 1;
    ASSERT_TRUE(sched.waitUntil([&sched] { return sched.frozen(); }, wo));
    sched.shutdown(false);

    EXPECT_EQ(crash_fired.load(), 1);
    EXPECT_FALSE(ran_after.load());
    EXPECT_EQ(dropped.load(), 1);
    // Post-freeze submissions are rejected through on_drop too.
    std::atomic<int> late_dropped{0};
    EXPECT_FALSE(sched.submit(JobClass::kFlush, [] {},
                              [&late_dropped] { late_dropped++; }));
    EXPECT_EQ(late_dropped.load(), 1);
}

TEST(SchedTest, ShutdownRunPendingCompletesQueuedJobs)
{
    std::atomic<int> ran{0};
    {
        BackgroundScheduler sched(deterministicOptions());
        for (int i = 0; i < 5; i++)
            ASSERT_TRUE(
                sched.submit(JobClass::kWalRecycle, [&ran] { ran++; }));
        sched.shutdown(/*run_pending=*/true);
    }
    EXPECT_EQ(ran.load(), 5);
}

TEST(SchedTest, ConcurrentSubmitDrainSoak)
{
    BackgroundScheduler::Options o;
    o.num_workers = 4;
    StatsCounters stats;
    o.stats = &stats;
    BackgroundScheduler sched(o);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 250;
    std::atomic<int> executed{0};
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; t++)
        writers.emplace_back([&sched, &executed, t] {
            for (int i = 0; i < kPerThread; i++) {
                auto cls = static_cast<JobClass>((t + i) %
                                                kNumJobClasses);
                sched.submit(cls, [&executed] { executed++; });
                if (i % 16 == 0)
                    sched.notifyEvent();
            }
        });
    for (auto &w : writers)
        w.join();
    sched.drain();
    EXPECT_EQ(executed.load(), kThreads * kPerThread);
    EXPECT_EQ(sched.busyJobs(), 0u);
    uint64_t completed = 0;
    for (int c = 0; c < kNumJobClasses; c++)
        completed += sched.completed(static_cast<JobClass>(c));
    EXPECT_EQ(completed, static_cast<uint64_t>(kThreads * kPerThread));
}

/** Satellite: single-threaded and parallel compaction are the same
 *  planner with different worker counts -- the merged end-state must
 *  be identical. */
TEST(SchedParityTest, ParallelAndSingleCompactionConverge)
{
    auto runMode = [](bool parallel) {
        sim::NvmDevice nvm;
        miodb::MioOptions o;
        o.memtable_size = 8 << 10;
        o.elastic_levels = 3;
        o.parallel_compaction = parallel;
        miodb::MioDB db(o, &nvm);
        std::string value(128, 'p');
        for (int i = 0; i < 2000; i++) {
            Status s = db.put(Slice(makeKey(i % 500)), Slice(value));
            EXPECT_TRUE(s.isOk()) << s.toString();
        }
        db.waitIdle();
        // Canonical end-state: every live key/value in order.
        std::vector<std::pair<std::string, std::string>> out;
        EXPECT_TRUE(db.scan(Slice(""), 500, &out).isOk());
        return out;
    };
    auto single = runMode(false);
    auto parallel = runMode(true);
    ASSERT_EQ(single.size(), parallel.size());
    EXPECT_EQ(single, parallel);
}

} // namespace
} // namespace mio::sched
