/**
 * @file
 * BackgroundScheduler: the unified maintenance executor shared by
 * flush, compaction, scrubbing, WAL recycling, and the SSD tier.
 *
 * Stores used to own one dedicated thread family per maintenance path
 * (a flusher, one compactor per buffer level, a scrubber, plus the
 * SSD LSM's own compaction pool), coordinated by a web of condition
 * variables and sleep-polls. This subsystem replaces all of them with
 * one fixed-size worker pool executing typed jobs:
 *
 *  - per-class base priorities (flush ahead of merges ahead of
 *    housekeeping) with FIFO order within a class;
 *  - urgency escalation: a per-class probe (e.g. "NVM above the soft
 *    watermark") evaluated at dispatch time lifts that class ahead of
 *    everything else, so exhaustion boosts migration jobs ahead of
 *    flushes and scrubs without any explicit re-prioritisation calls;
 *  - delayed jobs (transient-failure backoff) and periodic jobs
 *    (scrubber cadence), both cancelled on shutdown;
 *  - a deterministic single-threaded mode for the crash/failpoint
 *    harness: no worker threads are spawned and queued jobs run
 *    inline, in strict priority order, inside waitUntil()/drain()
 *    on the calling thread;
 *  - SimCrash propagation: a job throwing sim::SimCrash freezes the
 *    scheduler (queued work is dropped through its on_drop hooks) and
 *    fires the owner's crash callback -- the store-wide power-failure
 *    transition happens in exactly one place;
 *  - quiesce/drain/wait primitives that replace the per-path
 *    wedge-detection loops stores used to hand-roll.
 *
 * Observability: every submit/dispatch/completion is mirrored into
 * the owning store's StatsCounters (per-class queued/running/
 * completed counts plus queue-latency and run-time histograms), so
 * background behaviour is measurable instead of inferred.
 */
#ifndef MIO_SCHED_BACKGROUND_SCHEDULER_H_
#define MIO_SCHED_BACKGROUND_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "kv/store_stats.h"

namespace mio::sched {

/**
 * Typed maintenance job classes, in base-priority order (lower
 * enumerator value = dispatched first). The order encodes who is
 * allowed to starve whom when workers are scarce: writers block on
 * flushes, flushes block on migrations freeing NVM, and housekeeping
 * (WAL recycling, scrubbing) yields to everything.
 */
enum class JobClass : int {
    kFlush = 0,         //!< MemTable -> L0 PMTable (writers wait on it)
    kLazyCopyMerge = 1, //!< last-level migration into the repository
    kZeroCopyMerge = 2, //!< in-buffer level merges / pressure demotion
    kSsdCompaction = 3, //!< SSD-tier SSTable compaction
    kWalRecycle = 4,    //!< removing WAL segments of flushed tables
    kScrub = 5,         //!< periodic integrity verification
    kVlogGc = 6,        //!< value-log segment garbage collection
    kWalReplay = 7,     //!< recovery: a shard's open (WAL replay)
};

inline constexpr int kNumJobClasses = StatsCounters::kJobClasses;
static_assert(static_cast<int>(JobClass::kWalReplay) + 1 == kNumJobClasses,
              "StatsCounters sizes its per-class arrays and names by "
              "JobClass");

/** Short stable name for logs, stats dumps, and tests. */
const char *jobClassName(JobClass c);

/** Tuning for BackgroundScheduler::waitUntil. */
struct WaitOptions {
    /** Give up (return false) at this deadline. */
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /** Invoked once per tick while waiting (e.g. re-kick work). */
    std::function<void()> kick;
    /**
     * Wedge detection (the old waitIdle heuristic, now in one
     * place): if progress() is static while denials() keeps
     * growing for stagnant_limit consecutive ticks, the wait
     * gives up and returns false -- the store is as idle as an
     * exhausted device lets it get.
     */
    std::function<uint64_t()> progress;
    std::function<uint64_t()> denials;
    int stagnant_limit = 25;
    /** Tick period for kick/wedge sampling while blocked. */
    uint64_t tick_ms = 20;
};

class BackgroundScheduler
{
  public:
    using JobFn = std::function<void()>;

    struct Options {
        /** Worker threads; ignored (forced 0) when deterministic. */
        int num_workers = 1;
        /**
         * Deterministic mode: spawn no threads. Jobs accumulate and
         * run inline -- in strict priority order -- whenever the
         * calling thread enters waitUntil() or drain(). Periodic jobs
         * never self-fire (invoke their work directly in tests).
         */
        bool deterministic = false;
        /** Observability sink (may be nullptr). */
        StatsCounters *stats = nullptr;
        /**
         * Fired (at most once, after the scheduler froze itself) when
         * a job escapes with sim::SimCrash: the owner's store-wide
         * power-failure transition.
         */
        std::function<void()> on_crash;
    };

    explicit BackgroundScheduler(const Options &options);
    ~BackgroundScheduler();

    BackgroundScheduler(const BackgroundScheduler &) = delete;
    BackgroundScheduler &operator=(const BackgroundScheduler &) = delete;

    /**
     * Queue @p fn for execution. @p on_drop runs if the job is
     * discarded unexecuted (freeze or shutdown) so submitters can
     * release claims/tokens. @return false (after running on_drop)
     * when the scheduler is frozen or shutting down.
     */
    bool submit(JobClass cls, JobFn fn, JobFn on_drop = nullptr);

    /** submit() after @p delay_ms (transient-failure backoff). */
    bool submitAfter(JobClass cls, uint64_t delay_ms, JobFn fn,
                     JobFn on_drop = nullptr);

    /**
     * Run @p fn every @p interval_ms, measured completion-to-start so
     * passes never overlap; first run after one full interval.
     * Deterministic mode registers but never fires it.
     * @return id for cancelPeriodic (0 when rejected).
     */
    uint64_t submitPeriodic(JobClass cls, uint64_t interval_ms,
                            JobFn fn);
    void cancelPeriodic(uint64_t id);

    /**
     * Install the urgency probe for @p cls. Evaluated at every
     * dispatch; while true the class is served ahead of every
     * non-urgent class. Probes must be cheap, must not block, and
     * must never call back into the scheduler.
     */
    void setUrgencyProbe(JobClass cls, std::function<bool()> probe);

    /**
     * Wake every waitUntil()/waitFor() caller to re-evaluate its
     * predicate. Job submission and completion notify implicitly;
     * call this after external state changes (crash flags, queue
     * pushes) that a predicate may depend on.
     */
    void notifyEvent();

    /**
     * Block until @p pred() returns true, waking on every scheduler
     * event. In deterministic mode, due jobs run inline on this
     * thread between predicate checks (delayed jobs fast-forward when
     * nothing else is runnable). @return false when the deadline
     * passed, the wait wedged (see WaitOptions), or -- deterministic
     * mode only -- no queued job can make progress.
     */
    bool waitUntil(const std::function<bool()> &pred,
                   const WaitOptions &opts = WaitOptions());

    /**
     * Interruptible timed wait (replaces bare sleeps on background
     * paths): returns at the deadline, or early when the scheduler
     * freezes or shuts down. Never runs jobs inline.
     */
    void waitFor(std::chrono::microseconds d);

    /**
     * Wait until no one-shot job is queued, delayed, or running
     * (periodic registrations don't count). Deterministic mode drains
     * inline.
     */
    void drain();

    /**
     * Power-failure transition: discard all queued/delayed/periodic
     * work (running jobs finish on their own), drop every future
     * submission, wake all waiters. Idempotent.
     */
    void freeze();
    bool frozen() const { return frozen_.load(std::memory_order_acquire); }

    /**
     * Quiesce for destruction: cancel delayed/periodic work, then
     * either run the already-queued jobs to completion
     * (@p run_pending, clean shutdown) or drop them (crash teardown),
     * and park the workers. Submissions made after this call are
     * dropped. Idempotent; called by the destructor if the owner
     * didn't.
     */
    void shutdown(bool run_pending);

    // ---- introspection (tests, debugString) ----

    /** One-shot jobs currently queued (ready, not yet dispatched). */
    uint64_t queued(JobClass cls) const;
    /** Jobs of @p cls executing right now. */
    uint64_t running(JobClass cls) const;
    /** Jobs of @p cls that finished executing. */
    uint64_t completed(JobClass cls) const;
    /** Queued + delayed + running one-shot jobs, all classes. */
    uint64_t busyJobs() const;
    bool deterministic() const { return deterministic_; }
    int workerCount() const { return static_cast<int>(workers_.size()); }
    /**
     * True on a thread currently executing a job of ANY scheduler
     * (the reentrancy guard is thread-local, not per-pool). A
     * deterministic-mode waitUntil on such a thread cannot assist-run
     * further jobs; waits that depend on another job making progress
     * must check this and bail instead of parking forever.
     */
    static bool inJob();

  private:
    struct Job {
        JobFn fn;
        JobFn on_drop;
        JobClass cls;
        uint64_t enqueue_ns = 0;
    };
    struct Delayed {
        std::chrono::steady_clock::time_point due;
        uint64_t order;  //!< tie-break: submission order
        Job job;
        uint64_t periodic_id = 0;  //!< != 0: fire the registration
    };
    struct Periodic {
        JobClass cls;
        uint64_t interval_ms;
        JobFn fn;
    };

    /** Heap comparator: earliest due on top, FIFO on ties. */
    static bool delayedLater(const Delayed &a, const Delayed &b);
    void workerLoop();
    /** Move due delayed entries into the ready queues (holds mu_). */
    void promoteDueLocked(std::chrono::steady_clock::time_point now);
    /** Highest-priority ready job, honoring urgency probes (mu_). */
    bool popReadyLocked(Job *out);
    /** Execute @p job on this thread; handles stats + SimCrash. */
    void runJob(Job job);
    /** Completion bookkeeping common to all runJob exits. */
    void finishJob(int cls, uint64_t start_ns);
    /** Freeze + fire on_crash exactly once. */
    void handleSimCrash();
    /** Run one due/ready job inline (deterministic mode). */
    bool runOneInline(bool fast_forward);
    /** Collect every queued/delayed job for dropping (holds mu_). */
    void stealAllLocked(std::vector<Job> *out);
    static void dropJobs(std::vector<Job> &doomed,
                         StatsCounters *stats);
    void bumpEventLocked();
    /** Earliest delayed due time, or a far-future sentinel (mu_). */
    std::chrono::steady_clock::time_point nextDueLocked() const;

    const bool deterministic_;
    StatsCounters *stats_;
    std::function<void()> on_crash_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;   //!< workers park here
    std::condition_variable event_cv_;  //!< waitUntil/waitFor park here
    uint64_t event_seq_ = 0;
    uint64_t next_order_ = 1;
    uint64_t next_periodic_id_ = 1;
    std::deque<Job> ready_[kNumJobClasses];
    std::vector<Delayed> delayed_;  //!< min-heap by (due, order)
    std::map<uint64_t, Periodic> periodic_;
    std::function<bool()> probes_[kNumJobClasses];
    uint64_t queued_count_[kNumJobClasses] = {};
    uint64_t running_count_[kNumJobClasses] = {};
    uint64_t completed_count_[kNumJobClasses] = {};
    uint64_t delayed_count_ = 0;  //!< non-periodic delayed entries
    std::atomic<bool> frozen_{false};
    bool shutting_down_ = false;
    bool crash_fired_ = false;
    std::vector<std::thread> workers_;
};

} // namespace mio::sched

#endif // MIO_SCHED_BACKGROUND_SCHEDULER_H_
