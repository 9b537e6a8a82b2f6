/**
 * @file
 * The data repository and lazy-copy compaction (paper Sec. 4.4).
 *
 * L(n-1) PMTables are physically merged into the repository: the
 * newest version of each key is copied in, older repository versions
 * are unlinked, tombstones delete and are then dropped (nothing lives
 * below the repository). Afterwards the source table's entire arena
 * chain -- including every node logically deleted by earlier
 * zero-copy merges -- is reclaimed in one step.
 *
 * Two repository implementations mirror the paper's two deployments:
 * a huge persistent skip list in NVM (in-memory mode) and a leveled
 * LSM of SSTables on the simulated SSD (DRAM-NVM-SSD mode, Sec. 5.4).
 */
#ifndef MIO_MIODB_LAZY_COPY_MERGE_H_
#define MIO_MIODB_LAZY_COPY_MERGE_H_

#include <memory>

#include "kv/store_stats.h"
#include "lsm/lsm_tree.h"
#include "miodb/pmtable.h"
#include "miodb/zero_copy_merge.h"
#include "sstable/internal_key.h"

namespace mio::miodb {

/** Where fully-compacted data finally lives. */
class Repository
{
  public:
    virtual ~Repository() = default;

    /** Result of one scrub pass over the repository's data. */
    struct ScrubReport {
        uint64_t bytes = 0;        //!< payload bytes verified
        uint64_t corruptions = 0;  //!< checksum mismatches found
        uint64_t quarantined = 0;  //!< tables newly quarantined
    };

    /**
     * Lazy-copy @p src's live entries in; src is spent afterwards.
     * A non-ok status (NVM budget, SSD I/O) leaves the repository
     * consistent; the caller retries -- the merge is idempotent per
     * key/sequence.
     *
     * @param keep_seq oldest pinned snapshot bound: versions (and
     * tombstones) a snapshot at or above it may still need stay
     * stored; with kMaxSequence only the newest version per key
     * survives (the historical behaviour).
     */
    virtual Status mergeTable(PMTable *src,
                              uint64_t keep_seq = kMaxSequence) = 0;

    /**
     * @return true if any version of @p key exists here. With
     * @p verify, entry integrity is checked and a failure sets
     * @p corrupt instead of returning damaged bytes.
     */
    virtual bool get(const Slice &key, std::string *value,
                     EntryType *type, uint64_t *seq,
                     bool verify = false,
                     bool *corrupt = nullptr) const = 0;

    /** Verify stored checksums; quarantine what fails (scrubber). */
    virtual ScrubReport scrub() { return ScrubReport{}; }

    /** Internal-key iterator over the whole repository. */
    virtual std::unique_ptr<lsm::KVIterator> newIterator() const = 0;

    /**
     * Capture an opaque pin of the repository's current version for a
     * snapshot. PmRepository needs none (its skip list retains pinned
     * versions in place, gated by keep_seq); SsdRepository returns a
     * file-list pin that keeps the captured SSTables' blobs alive.
     */
    virtual std::shared_ptr<const void> pinVersion() const
    {
        return nullptr;
    }

    /**
     * Internal-key iterator serving a pinned snapshot: reads the
     * version captured by @p pin (ignored where versions are in-place)
     * and verifies per-entry checksums when @p verify is set.
     */
    virtual std::unique_ptr<lsm::KVIterator>
    newSnapshotIterator(const std::shared_ptr<const void> &pin,
                        bool verify) const
    {
        (void)pin;
        (void)verify;
        return newIterator();
    }

    /**
     * Did post-capture damage poison reads of @p user_key under this
     * pin? (A pinned SSTable quarantined after capture: its bytes are
     * untrusted but the snapshot has no older file to fall back to.)
     */
    virtual bool snapshotCorrupt(const std::shared_ptr<const void> &pin,
                                 const Slice &user_key) const
    {
        (void)pin;
        (void)user_key;
        return false;
    }

    virtual uint64_t entryCount() const = 0;

    /** Drain any repository-internal background work. */
    virtual void waitIdle() {}

    /**
     * Point the repository's counters at a new owner. Called when a
     * surviving NVM image is adopted by a fresh store instance after
     * a (simulated) crash.
     */
    virtual void rebindStats(StatsCounters *stats) = 0;

    /**
     * Restart repository-internal background machinery that a
     * SimCrash froze (SSD-mode compaction jobs). The data itself is
     * durable; only the worker state needs reviving.
     */
    virtual void recoverAfterCrash() {}

    /**
     * Re-point repository-internal background work at the adopting
     * store's scheduler (nullptr detaches: the old owner is dying and
     * its pool with it). The durable repository outlives any one
     * store instance, so like rebindStats this is part of the
     * adoption protocol; call it before recoverAfterCrash.
     */
    virtual void rebindScheduler(sched::BackgroundScheduler *) {}

    /**
     * Install the drop-notification hook (see DropNotify): invoked
     * for every version this repository's compaction discards, so the
     * owning store can decay value-log liveness accounting. Re-set on
     * adoption alongside rebindStats; pass nullptr to detach.
     */
    virtual void setDropNotify(DropNotify fn) { (void)fn; }
};

/** Huge persistent skip list in NVM (the paper's primary design). */
class PmRepository : public Repository
{
  public:
    PmRepository(sim::NvmDevice *device, StatsCounters *stats);

    Status mergeTable(PMTable *src,
                      uint64_t keep_seq = kMaxSequence) override;
    bool get(const Slice &key, std::string *value, EntryType *type,
             uint64_t *seq, bool verify = false,
             bool *corrupt = nullptr) const override;
    std::unique_ptr<lsm::KVIterator> newIterator() const override;
    std::unique_ptr<lsm::KVIterator>
    newSnapshotIterator(const std::shared_ptr<const void> &pin,
                        bool verify) const override;
    uint64_t
    entryCount() const override
    {
        return list_ ? list_->entryCount() : 0;
    }
    void rebindStats(StatsCounters *stats) override { stats_ = stats; }
    ScrubReport scrub() override;
    void
    setDropNotify(DropNotify fn) override
    {
        drop_notify_ = std::move(fn);
    }

    const SkipList &list() const { return *list_; }
    size_t memoryUsage() const { return arena_.memoryUsage(); }
    /** Bytes occupied by unlinked (log-garbage) nodes. */
    uint64_t garbageBytes() const { return garbage_bytes_; }

  private:
    sim::NvmDevice *device_;
    StatsCounters *stats_;
    ChunkedNvmArena arena_;
    std::unique_ptr<SkipList> list_;
    uint64_t garbage_bytes_ = 0;
    DropNotify drop_notify_;
};

/** SSD-mode repository: a leveled LSM of SSTables (paper Sec. 5.4). */
class SsdRepository : public Repository
{
  public:
    /** @param sched the owning store's scheduler -- MioDB passes its
     *  unified pool so SSD-tier compactions share it; nullptr
     *  (standalone tests) gives the inner LsmTree a private pool. */
    SsdRepository(const lsm::LsmOptions &options,
                  sim::StorageMedium *medium, StatsCounters *stats,
                  sched::BackgroundScheduler *sched = nullptr);

    Status mergeTable(PMTable *src,
                      uint64_t keep_seq = kMaxSequence) override;
    bool get(const Slice &key, std::string *value, EntryType *type,
             uint64_t *seq, bool verify = false,
             bool *corrupt = nullptr) const override;
    std::unique_ptr<lsm::KVIterator> newIterator() const override;
    std::shared_ptr<const void> pinVersion() const override;
    std::unique_ptr<lsm::KVIterator>
    newSnapshotIterator(const std::shared_ptr<const void> &pin,
                        bool verify) const override;
    bool snapshotCorrupt(const std::shared_ptr<const void> &pin,
                         const Slice &user_key) const override;
    uint64_t entryCount() const override;
    void waitIdle() override { lsm_.waitIdle(); }
    ScrubReport scrub() override;
    void
    rebindStats(StatsCounters *stats) override
    {
        stats_ = stats;
        lsm_.rebindStats(stats);
    }
    void recoverAfterCrash() override { lsm_.recoverFromCrash(); }
    void
    rebindScheduler(sched::BackgroundScheduler *sched) override
    {
        lsm_.rebindScheduler(sched);
    }
    void
    setDropNotify(DropNotify fn) override
    {
        lsm_.setDropNotify(std::move(fn));
    }

    lsm::LsmTree &lsm() { return lsm_; }

  private:
    mutable lsm::LsmTree lsm_;
    StatsCounters *stats_;
};

} // namespace mio::miodb

#endif // MIO_MIODB_LAZY_COPY_MERGE_H_
