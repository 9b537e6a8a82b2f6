/**
 * @file
 * LsmTree: a LevelDB-style leveled engine of SSTables over a
 * StorageMedium, with background compaction. It deliberately does NOT
 * own a MemTable or WAL -- each store composes it with its own
 * buffering architecture (NoveLSM's NVM MemTables, MatrixKV's matrix
 * container, MioDB's SSD-mode bottom level).
 *
 * Compactions run as kSsdCompaction jobs on a BackgroundScheduler:
 * either a private one (standalone trees, the baselines) or the
 * owning store's shared pool (MioDB's SSD mode), so one executor
 * arbitrates NVM-buffer merges against SSD compactions.
 */
#ifndef MIO_LSM_LSM_TREE_H_
#define MIO_LSM_LSM_TREE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "kv/store_stats.h"
#include "lsm/iterator.h"
#include "lsm/merging_iterator.h"
#include "lsm/version_set.h"
#include "sched/background_scheduler.h"
#include "sim/storage_medium.h"

namespace mio::lsm {

class LsmTree
{
  public:
    /**
     * @param options level geometry and triggers
     * @param medium where SSTable blobs live (NVM or SSD medium)
     * @param stats the owning store's counters (serialization,
     *        compaction, storage traffic are charged here)
     * @param name_prefix distinguishes blobs of co-located trees
     * @param sched scheduler compactions are submitted to; nullptr
     *        creates a private pool of options.compaction_threads
     *        workers. An external scheduler is borrowed, never owned
     *        -- see rebindScheduler for the ownership-change protocol.
     */
    LsmTree(const LsmOptions &options, sim::StorageMedium *medium,
            StatsCounters *stats, std::string name_prefix = "sst",
            sched::BackgroundScheduler *sched = nullptr);
    ~LsmTree();

    LsmTree(const LsmTree &) = delete;
    LsmTree &operator=(const LsmTree &) = delete;

    /**
     * Serialize all entries of @p iter (internal-key ordered) into L0
     * tables. The serialization work is timed into stats. Called from
     * the owning store's flush thread.
     */
    Status flushToL0(KVIterator *iter);

    /**
     * Merge @p iter (user-key range [lo, hi]) directly with the
     * overlapping files of @p level, bypassing L0. This is the
     * fine-grained compaction entry point MatrixKV's column
     * compaction uses.
     */
    Status mergeIntoLevel(int level, KVIterator *iter,
                          const Slice &lo_user, const Slice &hi_user);

    /**
     * Find the newest version of @p user_key across all levels.
     * @return true when any version (including a tombstone) exists.
     * @param corrupt set when the key falls in a quarantined or
     *        checksum-failing file; the search stops there (deeper
     *        levels would return stale data as if current).
     */
    bool get(const Slice &user_key, std::string *value, EntryType *type,
             uint64_t *seq = nullptr, bool *corrupt = nullptr);

    /**
     * Verify the body checksum of every live SSTable; quarantine the
     * failures. Accumulates into the caller's counters.
     */
    void scrubTables(uint64_t *bytes, uint64_t *corruptions,
                     uint64_t *quarantined);

    /** Internal-key merged iterator over every file (for scans). */
    std::unique_ptr<KVIterator> newIterator() const;

    /**
     * Every level's file list at one instant. Holding the returned
     * pin keeps those files' blobs readable: compaction retires its
     * victims by marking them delete-on-last-reference instead of
     * deleting by name, so a pinned FileMeta defers the blob's death.
     */
    using VersionPin = std::vector<std::vector<std::shared_ptr<FileMeta>>>;
    VersionPin pinVersion() const { return versions_.allLevelFiles(); }

    /** Merged iterator over a pinned version instead of the live one.
     *  The pin must outlive the iterator (readers hold no extra refs). */
    std::unique_ptr<KVIterator> newIterator(const VersionPin &pin) const;

    /**
     * Claim runnable compactions and submit them as jobs, up to
     * options.compaction_threads outstanding at once. No-op while
     * crashed or between scheduler owners.
     */
    void maybeScheduleCompaction();

    /** Block until no compaction is runnable or running. */
    void waitIdle();

    int l0FileCount() const { return versions_.numFiles(0); }
    bool
    needsSlowdown() const
    {
        return l0FileCount() >= options_.l0_slowdown_trigger;
    }
    bool
    needsStop() const
    {
        return l0FileCount() >= options_.l0_stop_trigger;
    }

    VersionSet &versions() { return versions_; }
    const LsmOptions &options() const { return options_; }
    sim::StorageMedium *medium() { return medium_; }

    /**
     * Re-point the stats sink (adopting owner changed). Also
     * re-points the deserialization timer of every cached
     * TableReader: readers live inside FileMeta, which the version
     * set carries across store generations via NvmState, so without
     * this they would keep charging block-read time into the dead
     * previous owner's counters (a use-after-free write). Same
     * quiesced-adoption protocol as rebindScheduler.
     */
    void rebindStats(StatsCounters *stats);

    /**
     * Hook invoked with (type, value) for every entry the table
     * writer discards (older duplicate versions, dropped tombstones).
     * The owner uses it to decay value-log liveness when separated
     * value pointers fall out of the tree. nullptr detaches.
     */
    void
    setDropNotify(std::function<void(EntryType, const Slice &)> fn)
    {
        drop_notify_ = std::move(fn);
    }

    /**
     * Re-point the tree at a new external scheduler, or detach it
     * (nullptr). The tree's durable state (NvmState in MioDB's SSD
     * mode) outlives the store instance whose scheduler it borrows, so
     * each dying owner detaches the tree and each adopting owner
     * attaches its own pool before reviving compactions. Only valid
     * for trees constructed with an external scheduler, and only while
     * no compaction jobs are in flight (the old pool was quiesced).
     */
    void rebindScheduler(sched::BackgroundScheduler *sched);

    /**
     * Revive the tree after a SimCrash froze its compactions: clear
     * the crashed flag, replace a private scheduler's frozen pool, and
     * reschedule. SSTables and the version set are the durable state;
     * nothing to repair.
     */
    void recoverFromCrash();

  private:
    /** Job body: run @p job, then keep the pipeline primed. */
    void runCompactionJob(CompactionJob *job);
    void doCompaction(const CompactionJob &job);
    /** Build the private worker pool (no external scheduler). */
    std::unique_ptr<sched::BackgroundScheduler> makePrivateScheduler();

    /**
     * Consume @p iter writing output tables split at the target size;
     * @p drop_tombstones discards deletion markers (bottom level).
     * Duplicate user keys collapse to the newest version.
     */
    Status writeTables(KVIterator *iter, bool drop_tombstones,
                       std::vector<std::shared_ptr<FileMeta>> *outputs);

    std::shared_ptr<FileMeta> installBlob(std::string contents,
                                          uint64_t number,
                                          uint64_t num_entries,
                                          std::string smallest,
                                          std::string largest);

    LsmOptions options_;
    sim::StorageMedium *medium_;
    StatsCounters *stats_;
    std::string name_prefix_;
    VersionSet versions_;

    /** Private pool when no external scheduler was provided. */
    std::unique_ptr<sched::BackgroundScheduler> owned_sched_;
    /** Jobs go here; nullptr only between external owners. */
    sched::BackgroundScheduler *sched_;
    /** Compaction jobs submitted or running (claims held). */
    std::atomic<int> outstanding_{0};
    /** A failpoint (sim::SimCrash) froze this tree's compactions: no
     *  further jobs are submitted, and waitIdle returns immediately. */
    std::atomic<bool> crashed_{false};
    /** See setDropNotify. */
    std::function<void(EntryType, const Slice &)> drop_notify_;
};

} // namespace mio::lsm

#endif // MIO_LSM_LSM_TREE_H_
