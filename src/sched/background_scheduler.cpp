#include "sched/background_scheduler.h"

#include <algorithm>
#include <cassert>

#include "sim/failpoint.h"
#include "sim/nvm_device.h"
#include "util/clock.h"

namespace mio::sched {

namespace {

// Reentrancy guard: a deterministic-mode job must never assist-run
// further jobs from inside waitUntil()/drain() calls it makes itself,
// or flush could recurse into flush.
thread_local bool tl_in_job = false;

constexpr auto kFarFuture = std::chrono::steady_clock::time_point::max();

} // namespace

bool
BackgroundScheduler::inJob()
{
    return tl_in_job;
}

const char *
jobClassName(JobClass c)
{
    const int i = static_cast<int>(c);
    return i >= 0 && i < kNumJobClasses ? StatsCounters::kJobClassNames[i]
                                        : "?";
}

BackgroundScheduler::BackgroundScheduler(const Options &options)
    : deterministic_(options.deterministic), stats_(options.stats),
      on_crash_(options.on_crash)
{
    int n = deterministic_ ? 0 : std::max(options.num_workers, 1);
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

BackgroundScheduler::~BackgroundScheduler() { shutdown(false); }

bool
BackgroundScheduler::submit(JobClass cls, JobFn fn, JobFn on_drop)
{
    Job job{std::move(fn), std::move(on_drop), cls, nowNanos()};
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!frozen_.load(std::memory_order_relaxed) && !shutting_down_) {
            if (stats_)
                stats_->sched_submitted[static_cast<int>(cls)].fetch_add(
                    1, std::memory_order_relaxed);
            queued_count_[static_cast<int>(cls)]++;
            ready_[static_cast<int>(cls)].push_back(std::move(job));
            bumpEventLocked();
            work_cv_.notify_one();
            return true;
        }
    }
    // Rejected: release the submitter's claim outside mu_.
    if (stats_)
        stats_->sched_dropped[static_cast<int>(cls)].fetch_add(
            1, std::memory_order_relaxed);
    if (job.on_drop)
        job.on_drop();
    return false;
}

bool
BackgroundScheduler::submitAfter(JobClass cls, uint64_t delay_ms,
                                 JobFn fn, JobFn on_drop)
{
    Job job{std::move(fn), std::move(on_drop), cls, nowNanos()};
    auto due = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(delay_ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!frozen_.load(std::memory_order_relaxed) && !shutting_down_) {
            if (stats_)
                stats_->sched_submitted[static_cast<int>(cls)].fetch_add(
                    1, std::memory_order_relaxed);
            delayed_.push_back(Delayed{due, next_order_++,
                                       std::move(job), 0});
            std::push_heap(delayed_.begin(), delayed_.end(),
                           &delayedLater);
            delayed_count_++;
            bumpEventLocked();
            // Wake a worker so its timed wait re-targets the new due
            // time (it may currently be parked on a later deadline).
            work_cv_.notify_one();
            return true;
        }
    }
    if (stats_)
        stats_->sched_dropped[static_cast<int>(cls)].fetch_add(
            1, std::memory_order_relaxed);
    if (job.on_drop)
        job.on_drop();
    return false;
}

uint64_t
BackgroundScheduler::submitPeriodic(JobClass cls, uint64_t interval_ms,
                                    JobFn fn)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (frozen_.load(std::memory_order_relaxed) || shutting_down_)
        return 0;
    uint64_t id = next_periodic_id_++;
    periodic_[id] = Periodic{cls, interval_ms, std::move(fn)};
    if (!deterministic_) {
        // Arm the first firing one full interval out. The heap entry
        // carries no fn of its own: firing looks up the registration,
        // so cancelPeriodic wins any race with the timer.
        delayed_.push_back(
            Delayed{std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(interval_ms),
                    next_order_++, Job{nullptr, nullptr, cls, 0}, id});
        std::push_heap(delayed_.begin(), delayed_.end(), &delayedLater);
        work_cv_.notify_one();
    }
    return id;
}

void
BackgroundScheduler::cancelPeriodic(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mu_);
    periodic_.erase(id);
    // A pending heap entry for this id becomes a no-op at fire time.
}

void
BackgroundScheduler::setUrgencyProbe(JobClass cls,
                                     std::function<bool()> probe)
{
    std::lock_guard<std::mutex> lock(mu_);
    probes_[static_cast<int>(cls)] = std::move(probe);
}

void
BackgroundScheduler::notifyEvent()
{
    std::lock_guard<std::mutex> lock(mu_);
    bumpEventLocked();
}

bool
BackgroundScheduler::delayedLater(const Delayed &a, const Delayed &b)
{
    // std::push_heap builds a max-heap; "later" on top means the
    // comparator must say a < b when a is due sooner.
    if (a.due != b.due)
        return a.due > b.due;
    return a.order > b.order;
}

void
BackgroundScheduler::bumpEventLocked()
{
    event_seq_++;
    event_cv_.notify_all();
}

std::chrono::steady_clock::time_point
BackgroundScheduler::nextDueLocked() const
{
    return delayed_.empty() ? kFarFuture : delayed_.front().due;
}

void
BackgroundScheduler::promoteDueLocked(
    std::chrono::steady_clock::time_point now)
{
    while (!delayed_.empty() && delayed_.front().due <= now) {
        std::pop_heap(delayed_.begin(), delayed_.end(), &delayedLater);
        Delayed d = std::move(delayed_.back());
        delayed_.pop_back();
        if (d.periodic_id != 0) {
            auto it = periodic_.find(d.periodic_id);
            if (it == periodic_.end())
                continue; // cancelled while armed
            Job job{it->second.fn, nullptr, it->second.cls, nowNanos()};
            if (stats_)
                stats_->sched_submitted[static_cast<int>(job.cls)]
                    .fetch_add(1, std::memory_order_relaxed);
            // Wrap so completion re-arms the next firing
            // (completion-to-start spacing: passes never overlap).
            uint64_t id = d.periodic_id;
            JobFn body = std::move(job.fn);
            job.fn = [this, id, body = std::move(body)] {
                body();
                std::lock_guard<std::mutex> lock(mu_);
                auto reg = periodic_.find(id);
                if (reg == periodic_.end() ||
                    frozen_.load(std::memory_order_relaxed) ||
                    shutting_down_)
                    return;
                delayed_.push_back(Delayed{
                    std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            reg->second.interval_ms),
                    next_order_++,
                    Job{nullptr, nullptr, reg->second.cls, 0}, id});
                std::push_heap(delayed_.begin(), delayed_.end(),
                               &delayedLater);
                work_cv_.notify_one();
            };
            queued_count_[static_cast<int>(job.cls)]++;
            ready_[static_cast<int>(job.cls)].push_back(std::move(job));
        } else {
            delayed_count_--;
            queued_count_[static_cast<int>(d.job.cls)]++;
            ready_[static_cast<int>(d.job.cls)].push_back(
                std::move(d.job));
        }
    }
}

bool
BackgroundScheduler::popReadyLocked(Job *out)
{
    // Pass 1: any class whose urgency probe fires is served first --
    // this is how NVM exhaustion lifts migrations over flushes.
    int first_nonempty = -1;
    for (int c = 0; c < kNumJobClasses; c++) {
        if (ready_[c].empty())
            continue;
        if (first_nonempty < 0)
            first_nonempty = c;
        if (probes_[c] && probes_[c]()) {
            if (stats_ && c != first_nonempty)
                stats_->sched_escalations.fetch_add(
                    1, std::memory_order_relaxed);
            *out = std::move(ready_[c].front());
            ready_[c].pop_front();
            queued_count_[c]--;
            return true;
        }
    }
    // Pass 2: base priority = class order.
    if (first_nonempty < 0)
        return false;
    *out = std::move(ready_[first_nonempty].front());
    ready_[first_nonempty].pop_front();
    queued_count_[first_nonempty]--;
    return true;
}

void
BackgroundScheduler::runJob(Job job)
{
    int c = static_cast<int>(job.cls);
    uint64_t start = nowNanos();
    if (stats_ && job.enqueue_ns != 0) {
        uint64_t waited = start - job.enqueue_ns;
        stats_->sched_queue_ns[c].fetch_add(waited,
                                            std::memory_order_relaxed);
        stats_->sched_queue_hist[c][StatsCounters::schedLatBucket(waited)]
            .fetch_add(1, std::memory_order_relaxed);
    }
    bool prev_in_job = tl_in_job;
    tl_in_job = true;
    try {
        job.fn();
    } catch (const sim::SimCrash &) {
        tl_in_job = prev_in_job;
        finishJob(c, start);
        handleSimCrash();
        return;
    } catch (...) {
        tl_in_job = prev_in_job;
        finishJob(c, start);
        throw;
    }
    tl_in_job = prev_in_job;
    finishJob(c, start);
}

void
BackgroundScheduler::finishJob(int c, uint64_t start_ns)
{
    if (stats_) {
        uint64_t ran = nowNanos() - start_ns;
        stats_->sched_run_ns[c].fetch_add(ran,
                                          std::memory_order_relaxed);
        stats_->sched_run_hist[c][StatsCounters::schedLatBucket(ran)]
            .fetch_add(1, std::memory_order_relaxed);
        stats_->sched_completed[c].fetch_add(1,
                                             std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(mu_);
    completed_count_[c]++;
    running_count_[c]--;
    bumpEventLocked();
}

void
BackgroundScheduler::handleSimCrash()
{
    // The simulated power failure: stop everything, then tell the
    // owner exactly once. freeze() drops queued jobs via on_drop so
    // claim-style submitters (the SSD tier) stay balanced.
    freeze();
    std::function<void()> cb;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!crash_fired_) {
            crash_fired_ = true;
            cb = on_crash_;
        }
    }
    if (cb)
        cb();
}

void
BackgroundScheduler::workerLoop()
{
    sim::markSimBackgroundThread();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        promoteDueLocked(std::chrono::steady_clock::now());
        Job job;
        if (!frozen_.load(std::memory_order_relaxed) &&
            popReadyLocked(&job)) {
            running_count_[static_cast<int>(job.cls)]++;
            lock.unlock();
            runJob(std::move(job));
            lock.lock();
            continue;
        }
        if (shutting_down_ || frozen_.load(std::memory_order_relaxed))
            return;
        auto due = nextDueLocked();
        if (due == kFarFuture)
            work_cv_.wait(lock);
        else
            work_cv_.wait_until(lock, due);
    }
}

bool
BackgroundScheduler::runOneInline(bool fast_forward)
{
    Job job;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (frozen_.load(std::memory_order_relaxed) || shutting_down_)
            return false;
        promoteDueLocked(std::chrono::steady_clock::now());
        if (!popReadyLocked(&job)) {
            if (!fast_forward || delayed_.empty())
                return false;
            // Deterministic time warp: nothing is runnable now, so
            // treat the earliest backoff deadline as having arrived
            // instead of sleeping through it.
            promoteDueLocked(delayed_.front().due);
            if (!popReadyLocked(&job))
                return false;
        }
        running_count_[static_cast<int>(job.cls)]++;
    }
    runJob(std::move(job));
    return true;
}

bool
BackgroundScheduler::waitUntil(const std::function<bool()> &pred,
                               const WaitOptions &opts)
{
    const bool ticking =
        opts.kick || opts.progress || opts.has_deadline;
    uint64_t last_progress = opts.progress ? opts.progress() : 0;
    uint64_t last_denials = opts.denials ? opts.denials() : 0;
    int stagnant = 0;
    for (;;) {
        if (pred())
            return true;
        if (deterministic_ && !tl_in_job) {
            // Assist: the calling thread is the worker pool.
            if (runOneInline(/*fast_forward=*/true))
                continue;
            return pred();
        }
        if (opts.has_deadline &&
            std::chrono::steady_clock::now() >= opts.deadline)
            return pred();
        uint64_t seen;
        {
            std::unique_lock<std::mutex> lock(mu_);
            seen = event_seq_;
        }
        if (pred())
            return true;
        if (opts.kick)
            opts.kick();
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (event_seq_ == seen) {
                if (ticking) {
                    auto tick = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(opts.tick_ms);
                    auto until = (opts.has_deadline &&
                                  opts.deadline < tick)
                                     ? opts.deadline
                                     : tick;
                    event_cv_.wait_until(lock, until, [&] {
                        return event_seq_ != seen;
                    });
                } else {
                    event_cv_.wait(lock, [&] {
                        return event_seq_ != seen;
                    });
                }
            }
        }
        if (opts.progress && opts.denials) {
            uint64_t p = opts.progress();
            uint64_t d = opts.denials();
            if (p == last_progress && d > last_denials) {
                if (++stagnant >= opts.stagnant_limit)
                    return pred(); // wedged on an exhausted device
            } else {
                stagnant = 0;
            }
            last_progress = p;
            last_denials = d;
        }
    }
}

void
BackgroundScheduler::waitFor(std::chrono::microseconds d)
{
    auto deadline = std::chrono::steady_clock::now() + d;
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t seen = event_seq_;
    while (!frozen_.load(std::memory_order_relaxed) && !shutting_down_ &&
           std::chrono::steady_clock::now() < deadline) {
        event_cv_.wait_until(lock, deadline, [&] {
            // Any event may carry a freeze/shutdown edge; re-check.
            return event_seq_ != seen ||
                   frozen_.load(std::memory_order_relaxed) ||
                   shutting_down_;
        });
        seen = event_seq_;
    }
}

void
BackgroundScheduler::drain()
{
    waitUntil([this] {
        std::lock_guard<std::mutex> lock(mu_);
        if (frozen_.load(std::memory_order_relaxed) || shutting_down_)
            return true;
        for (int c = 0; c < kNumJobClasses; c++)
            if (queued_count_[c] != 0 || running_count_[c] != 0)
                return false;
        return delayed_count_ == 0;
    });
}

void
BackgroundScheduler::stealAllLocked(std::vector<Job> *out)
{
    for (int c = 0; c < kNumJobClasses; c++) {
        for (auto &j : ready_[c])
            out->push_back(std::move(j));
        queued_count_[c] = 0;
        ready_[c].clear();
    }
    for (auto &d : delayed_)
        if (d.periodic_id == 0)
            out->push_back(std::move(d.job));
    delayed_.clear();
    delayed_count_ = 0;
    periodic_.clear();
}

void
BackgroundScheduler::dropJobs(std::vector<Job> &doomed,
                              StatsCounters *stats)
{
    for (auto &j : doomed) {
        if (stats)
            stats->sched_dropped[static_cast<int>(j.cls)].fetch_add(
                1, std::memory_order_relaxed);
        if (j.on_drop)
            j.on_drop();
    }
    doomed.clear();
}

void
BackgroundScheduler::freeze()
{
    std::vector<Job> doomed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (frozen_.exchange(true, std::memory_order_acq_rel)) {
            return;
        }
        stealAllLocked(&doomed);
        bumpEventLocked();
        work_cv_.notify_all();
    }
    dropJobs(doomed, stats_);
}

void
BackgroundScheduler::shutdown(bool run_pending)
{
    std::vector<Job> doomed;
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (shutting_down_)
            return;
        // Backoff retries and periodic cadence die here either way;
        // only already-ready jobs may still run.
        std::vector<Delayed> delayed = std::move(delayed_);
        delayed_.clear();
        delayed_count_ = 0;
        periodic_.clear();
        for (auto &d : delayed)
            if (d.periodic_id == 0)
                doomed.push_back(std::move(d.job));
        if (run_pending && !frozen_.load(std::memory_order_relaxed)) {
            if (deterministic_) {
                lock.unlock();
                dropJobs(doomed, stats_);
                while (runOneInline(/*fast_forward=*/false)) {
                }
                lock.lock();
            } else {
                work_cv_.notify_all();
                event_cv_.wait(lock, [this] {
                    for (int c = 0; c < kNumJobClasses; c++)
                        if (queued_count_[c] != 0 ||
                            running_count_[c] != 0)
                            return false;
                    return true;
                });
            }
        } else {
            stealAllLocked(&doomed);
        }
        shutting_down_ = true;
        bumpEventLocked();
        work_cv_.notify_all();
    }
    dropJobs(doomed, stats_);
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
}

uint64_t
BackgroundScheduler::queued(JobClass cls) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queued_count_[static_cast<int>(cls)];
}

uint64_t
BackgroundScheduler::running(JobClass cls) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return running_count_[static_cast<int>(cls)];
}

uint64_t
BackgroundScheduler::completed(JobClass cls) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_count_[static_cast<int>(cls)];
}

uint64_t
BackgroundScheduler::busyJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t n = delayed_count_;
    for (int c = 0; c < kNumJobClasses; c++)
        n += queued_count_[c] + running_count_[c];
    return n;
}

} // namespace mio::sched
