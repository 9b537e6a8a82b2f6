#include "shard/sharded_miodb.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

namespace mio::shard {

namespace {

/**
 * Shared-pool worker census: @p per_shard explicit per-shard workers
 * (options.background_workers) or, when 0, enough slots to overlap
 * each shard's flush with its migration stream (plus the SSD tier's
 * compaction slots in hierarchy mode), plus one housekeeping slot for
 * the whole pool. Overlap across shards -- not within one -- is where
 * the scale-out comes from, so the census grows linearly with N.
 */
int
workerCensus(const miodb::MioOptions &opts, int num_shards)
{
    if (opts.deterministic_background)
        return 0;
    int per = opts.background_workers;
    if (per <= 0) {
        per = 2;
        if (opts.use_ssd_repository)
            per += std::max(1, opts.ssd_lsm.compaction_threads);
    }
    return per * num_shards + 1;
}

} // namespace

ShardedMioDB::ShardedMioDB(const miodb::MioOptions &shard_options,
                           int num_shards, sim::NvmDevice *nvm,
                           sim::SsdDevice *ssd,
                           std::shared_ptr<ShardSetState> state)
    : ShardedKvStore(buildShards(shard_options, num_shards, nvm, ssd,
                                 std::move(state)))
{
    // Shards exist now: arm the per-shard crash hooks so a failpoint
    // that fires on a FOREGROUND path (commit, get, scan) of one shard
    // also takes the whole machine down. Background failpoints reach
    // us through the pool's on_crash instead; propagateCrash() is
    // once-guarded against both arriving.
    for (auto &s : shards_) {
        static_cast<miodb::MioDB *>(s.get())->setCrashHook(
            [this] { propagateCrash(); });
    }

    // One aggregate urgency probe per merge class: the pool serves
    // merges ahead of everything while ANY shard is over its buffer
    // cap or the (shared) NVM device sits above the soft watermark.
    auto pressed = [this] {
        for (auto &s : shards_) {
            if (static_cast<miodb::MioDB *>(s.get())
                    ->underMemoryPressure())
                return true;
        }
        return false;
    };
    sched->setUrgencyProbe(sched::JobClass::kLazyCopyMerge, pressed);
    sched->setUrgencyProbe(sched::JobClass::kZeroCopyMerge, pressed);

    registerExtraStats(&sched_stats);

    ready.store(true, std::memory_order_release);
    // A background failpoint may have frozen the pool while shards
    // were still being built; finish the fan-out it had to defer.
    if (sched->frozen())
        propagateCrash();
}

std::vector<std::unique_ptr<KVStore>>
ShardedMioDB::buildShards(const miodb::MioOptions &shard_options,
                          int num_shards, sim::NvmDevice *nvm,
                          sim::SsdDevice *ssd,
                          std::shared_ptr<ShardSetState> state)
{
    if (num_shards < 1)
        num_shards = 1;

    set_state = std::move(state);
    const bool fresh = set_state == nullptr;
    if (fresh) {
        set_state = std::make_shared<ShardSetState>();
        set_state->shards.resize(num_shards);
        for (int i = 0; i < num_shards; i++)
            set_state->wals.push_back(
                std::make_unique<wal::WalRegistry>());
    } else if (static_cast<int>(set_state->shards.size()) !=
               num_shards) {
        throw std::invalid_argument(
            "ShardedMioDB: shard count does not match the recovered "
            "ShardSetState");
    }

    sched::BackgroundScheduler::Options so;
    so.num_workers = workerCensus(shard_options, num_shards);
    so.deterministic = shard_options.deterministic_background;
    so.stats = &sched_stats;
    so.on_crash = [this] { propagateCrash(); };
    sched = std::make_unique<sched::BackgroundScheduler>(so);

    // One governor for the whole machine: per-shard budgets scale to
    // machine-wide limits (each shard registers itself as a memtable
    // charger, so kMemtableDram grows to N x memtable_size on its
    // own). Gauges publish into sched_stats -- exactly one sink per
    // governor, so the facade's stats aggregation never double-counts.
    mem::MemoryGovernor::Config gc;
    gc.memtable_bytes = shard_options.memtable_size;
    gc.nvm_buffer_bytes =
        shard_options.nvm_buffer_cap_bytes * num_shards;
    gc.vlog_budget_bytes =
        shard_options.vlog_budget_bytes * num_shards;
    governor = std::make_shared<mem::MemoryGovernor>(gc, &sched_stats);

    // Shard construction (segment-directory scan, interrupted-
    // compaction completion, WAL replay) is
    // independent per shard, so open all shards concurrently on the
    // pool just built for them. Each slot is written by exactly one
    // job; a failed slot stays null. Deterministic mode (0 workers)
    // builds serially -- a constructor may park on the scheduler, and
    // nested assist-running inside waitUntil is not supported.
    std::vector<std::unique_ptr<KVStore>> shards(num_shards);
    auto buildOne = [&](int i) {
        miodb::MioOptions per = shard_options;
        per.shard_tag = "s" + std::to_string(i) + "/";
        auto shard = std::make_unique<miodb::MioDB>(
            per, nvm, ssd, set_state->wals[i].get(),
            set_state->shards[i], sched.get(), governor);
        if (fresh)
            set_state->shards[i] = shard->nvmState();
        shards[i] = std::move(shard);
    };
    std::exception_ptr first_error;
    std::mutex err_mu;
    const bool parallel =
        so.num_workers > 1 && num_shards > 1;
    if (parallel) {
        std::atomic<int> remaining{num_shards};
        for (int i = 0; i < num_shards; i++) {
            sched->submit(
                sched::JobClass::kWalReplay,
                [&, i] {
                    try {
                        buildOne(i);
                    } catch (...) {
                        std::lock_guard<std::mutex> el(err_mu);
                        if (!first_error)
                            first_error = std::current_exception();
                    }
                    remaining.fetch_sub(1,
                                        std::memory_order_acq_rel);
                    sched->notifyEvent();
                },
                // Dropped (another shard's failpoint froze the pool):
                // the slot stays null; the serial backfill below
                // handles it exactly like the old serial open did on
                // a frozen pool.
                [&] {
                    remaining.fetch_sub(1,
                                        std::memory_order_acq_rel);
                    sched->notifyEvent();
                });
        }
        sched::WaitOptions wo;
        wo.kick = [this] { sched->notifyEvent(); };
        wo.tick_ms = 2;
        sched->waitUntil(
            [&] {
                return remaining.load(std::memory_order_acquire) == 0;
            },
            wo);
    }
    // Serial path, plus backfill of slots whose job was dropped by a
    // mid-construction freeze (the historical serial semantics: a
    // background failpoint freezes the pool but construction itself
    // carries on; the facade constructor tail finishes the fan-out).
    if (!first_error) {
        try {
            for (int i = 0; i < num_shards; i++) {
                if (shards[i] == nullptr)
                    buildOne(i);
            }
        } catch (...) {
            first_error = std::current_exception();
        }
    }
    if (first_error) {
        // A shard's recovery hit a failpoint (sim::SimCrash) or its
        // constructor failed outright. The base class was never
        // constructed, so nobody else will clean up: crash the shards
        // already built (their destructors must not flush), stop the
        // pool before any of their memory goes away, and let the
        // vector unwind. set_state still holds every durable image.
        crashed.store(true, std::memory_order_release);
        for (auto &s : shards) {
            if (s != nullptr)
                static_cast<miodb::MioDB *>(s.get())->simulateCrash();
        }
        sched->shutdown(false);
        std::rethrow_exception(first_error);
    }
    return shards;
}

ShardedMioDB::~ShardedMioDB()
{
    // The urgency probes iterate shards_; detach them before the
    // ShardedKvStore base starts destroying shards under a live pool.
    sched->setUrgencyProbe(sched::JobClass::kLazyCopyMerge, nullptr);
    sched->setUrgencyProbe(sched::JobClass::kZeroCopyMerge, nullptr);

    if (crashed.load(std::memory_order_acquire)) {
        // Power failure: the pool is frozen but a worker may still be
        // mid-job inside some shard. Join everyone before the base
        // destructor frees shard memory. Clean shutdown needs none of
        // this -- each shard's destructor quiesces its own job streams
        // against the live pool, and the pool joins its workers when
        // the MioShardInfra base dies (after every shard is gone).
        sched->shutdown(false);
    }
}

miodb::MioDB &
ShardedMioDB::mioShard(int i)
{
    return *static_cast<miodb::MioDB *>(shards_[i].get());
}

bool
ShardedMioDB::memoryAccountingConsistent() const
{
    if (!governor->chargesConsistent())
        return false;
    for (const auto &sh : shards_) {
        if (!static_cast<const miodb::MioDB *>(sh.get())
                 ->memoryAccountingConsistent())
            return false;
    }
    return true;
}

void
ShardedMioDB::simulateCrash()
{
    propagateCrash();
}

void
ShardedMioDB::propagateCrash()
{
    crashed.store(true, std::memory_order_release);
    if (sched != nullptr) {
        sched->freeze();
        sched->notifyEvent();
    }
    // Before ready, shards_ may not exist yet (the pool's on_crash can
    // fire during construction); the constructor's tail re-invokes us.
    if (!ready.load(std::memory_order_acquire))
        return;
    if (crash_propagated.exchange(true))
        return;
    for (auto &s : shards_)
        static_cast<miodb::MioDB *>(s.get())->simulateCrash();
}

} // namespace mio::shard
