/**
 * @file
 * ShardedMioDB: N independent MioDB shards behind the ShardedKvStore
 * facade, all submitting maintenance to ONE shared BackgroundScheduler.
 *
 * Each shard is a complete MioDB: its own DRAM MemTable and commit
 * group, its own WAL segment stream (per-shard WalRegistry -- segment
 * names come from the shard's own table-id counter, so registries must
 * not be shared), its own elastic buffer levels and data repository
 * (NvmState). Only the worker pool is shared: per-shard job streams
 * stay serialized by each shard's own scheduling tokens while the pool
 * overlaps DIFFERENT shards' flushes and migrations -- that overlap is
 * the scale-out mechanism (modelled NVM device time is paid with
 * sleeps on workers, so N shards' migration stalls hide behind each
 * other instead of queueing on one stream).
 *
 * Crash model: a power failure is machine-wide. Any shard hitting a
 * failpoint (or an explicit simulateCrash()) freezes the shared pool
 * and marks EVERY shard crashed, so no shard's destructor flushes data
 * the "machine" never persisted. The durable half of all shards lives
 * in one ShardSetState handle; hand it (plus the same devices) to the
 * next ShardedMioDB and every shard replays its own WAL stream.
 */
#ifndef MIO_SHARD_SHARDED_MIODB_H_
#define MIO_SHARD_SHARDED_MIODB_H_

#include <atomic>
#include <memory>
#include <vector>

#include "miodb/miodb.h"
#include "sched/background_scheduler.h"
#include "shard/sharded_kv_store.h"
#include "sim/storage_medium.h"
#include "wal/log_writer.h"

namespace mio::shard {

/**
 * The durable (emulated-NVM) half of a shard set: every shard's
 * NvmState plus every shard's WAL registry. Survives the facade
 * object across a simulated power failure; pass it to the next
 * ShardedMioDB to recover.
 */
struct ShardSetState {
    std::vector<std::shared_ptr<miodb::NvmState>> shards;
    std::vector<std::unique_ptr<wal::WalRegistry>> wals;
};

namespace detail {

/**
 * Infrastructure every shard references: the shared scheduler, its
 * stats sink, the durable state handle, and the crash flags. Lives in
 * a base class declared BEFORE ShardedKvStore so C++ base ordering
 * guarantees it is constructed before any shard exists and destroyed
 * only after the ShardedKvStore base has torn all shards down.
 */
struct MioShardInfra {
    StatsCounters sched_stats;
    std::shared_ptr<ShardSetState> set_state;
    /**
     * One machine-wide memory governor spanning every shard: each
     * shard registers as a memtable charger and charges its PMTable
     * arenas / value-log segments here.
     */
    std::shared_ptr<mem::MemoryGovernor> governor;
    std::unique_ptr<sched::BackgroundScheduler> sched;
    std::atomic<bool> crashed{false};
    std::atomic<bool> crash_propagated{false};
    /**
     * Set (release) at the end of the facade constructor. The shared
     * pool's on_crash callback can fire while shards are still being
     * built (a worker running an early shard's replay-time flush hits
     * a failpoint); before ready, propagation only freezes the pool --
     * the constructor finishes the per-shard half once every shard
     * pointer exists.
     */
    std::atomic<bool> ready{false};
};

} // namespace detail

class ShardedMioDB : private detail::MioShardInfra, public ShardedKvStore
{
  public:
    /**
     * Open @p num_shards MioDB shards over the shared devices.
     *
     * @param shard_options per-SHARD configuration (the caller divides
     *        machine-wide budgets like memtable_size and
     *        nvm_buffer_cap_bytes by the shard count; the bench
     *        factory does this). shard_tag is stamped per shard.
     *        background_workers, if nonzero, is read as a PER-SHARD
     *        count for the shared pool.
     * @param nvm shared emulated NVM module (one device budget spans
     *        all shards, matching one physical machine)
     * @param ssd shared simulated SSD; required iff
     *        shard_options.use_ssd_repository
     * @param state durable image from a previous (crashed) facade;
     *        nullptr opens fresh. Shard count must match.
     *
     * Throws sim::SimCrash if a failpoint fires during recovery; the
     * partially built set is crashed and torn down first, and @p state
     * still holds every shard's durable image for the next attempt.
     */
    ShardedMioDB(const miodb::MioOptions &shard_options, int num_shards,
                 sim::NvmDevice *nvm, sim::SsdDevice *ssd = nullptr,
                 std::shared_ptr<ShardSetState> state = nullptr);
    ~ShardedMioDB() override;

    /** Durable image (hand to the next open after a crash). */
    std::shared_ptr<ShardSetState> shardSetState() const
    {
        return set_state;
    }

    /** Shard @p i as its concrete type (tests/benches introspect). */
    miodb::MioDB &mioShard(int i);

    /** The shared maintenance pool. */
    sched::BackgroundScheduler &scheduler() { return *sched; }

    /** The machine-wide memory governor (tests/benches introspect). */
    mem::MemoryGovernor &memoryGovernor() { return *governor; }

    /**
     * Governor drift witness plus every shard's exact accounting
     * check (see MioDB::memoryAccountingConsistent).
     */
    bool memoryAccountingConsistent() const;

    /**
     * Machine-wide power failure: freeze the shared pool, crash every
     * shard. Idempotent; also triggered by any shard's failpoint.
     */
    void simulateCrash();

    bool hasCrashed() const
    {
        return crashed.load(std::memory_order_acquire);
    }

  private:
    std::vector<std::unique_ptr<KVStore>>
    buildShards(const miodb::MioOptions &shard_options, int num_shards,
                sim::NvmDevice *nvm, sim::SsdDevice *ssd,
                std::shared_ptr<ShardSetState> state);
    /** The once-only crash fan-out (see MioShardInfra::ready). */
    void propagateCrash();
};

} // namespace mio::shard

#endif // MIO_SHARD_SHARDED_MIODB_H_
