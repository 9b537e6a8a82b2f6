/**
 * @file
 * The elastic multi-level NVM buffer (paper Sec. 4.1): levels hold an
 * unbounded deque of PMTables, so data flushing is never blocked by
 * compaction. Each level independently merges its two oldest tables
 * (zero-copy) and pushes the result down; the last buffer level
 * migrates tables into the data repository (lazy-copy).
 */
#ifndef MIO_MIODB_LEVEL_MANAGER_H_
#define MIO_MIODB_LEVEL_MANAGER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "miodb/pmtable.h"

namespace mio::miodb {

/**
 * Immutable, epoch-published view of one buffer level. The single
 * compaction/flush writer of a level rebuilds this on every membership
 * change and installs it with one atomic pointer store; a reader under
 * the store's ReadGuard epoch loads the pointer once per lookup and
 * probes captured (never-mutated) bloom filters and key ranges with no
 * locks and no per-get refcount churn. Retired manifests go through
 * the same graveyard that already defers PMTable reclamation past
 * in-flight readers.
 */
struct LevelManifest {
    /** One member table with metadata captured at publish time. */
    struct TableRef {
        std::shared_ptr<PMTable> table;
        /** Filter frozen at capture; absorb() never mutates it. */
        std::shared_ptr<const BloomFilter> bloom;
        /** DRAM fence index, or nullptr (plain descent). */
        std::shared_ptr<const FenceIndex> fence;
        std::string min_key;
        std::string max_key;

        bool
        coversKey(const Slice &key) const
        {
            return Slice(min_key).compare(key) <= 0 &&
                   key.compare(Slice(max_key)) <= 0;
        }
    };

    /** Resident tables, newest first. */
    std::vector<TableRef> tables;

    /** In-flight zero-copy merge of the two oldest tables. */
    std::shared_ptr<MergeOp> merge;
    std::shared_ptr<const BloomFilter> merge_newt_bloom;
    std::shared_ptr<const BloomFilter> merge_oldt_bloom;

    /** Table being lazy-copied to the repository (oldest). */
    std::shared_ptr<PMTable> migrating;
    std::shared_ptr<const BloomFilter> migrating_bloom;
    std::shared_ptr<const FenceIndex> migrating_fence;
    std::string migrating_min;
    std::string migrating_max;

    /**
     * OR-merge of every member filter above (tables + merge pair +
     * migrating), or nullptr when summaries are disabled, the level is
     * empty, or member geometries diverge. One negative probe here
     * proves the key is in no member, so the whole level is skipped.
     */
    std::shared_ptr<const BloomFilter> summary;

    /** DRAM bytes held by the fences above (fence_bytes gauge). */
    size_t fence_bytes = 0;

    bool
    hasMembers() const
    {
        return !tables.empty() || merge != nullptr ||
               migrating != nullptr;
    }
};

/** One elastic-buffer level. Thread safe. */
class BufferLevel
{
  public:
    /** Reader-visible state captured atomically. */
    struct Snapshot {
        /** Resident tables, newest first. */
        std::vector<std::shared_ptr<PMTable>> tables;
        /** In-flight zero-copy merge of the two oldest tables. */
        std::shared_ptr<MergeOp> merge;
        /** Table being lazy-copied to the repository (oldest). */
        std::shared_ptr<PMTable> migrating;
    };

    BufferLevel();

    /** Append a table as the newest of this level. */
    void push(std::shared_ptr<PMTable> table);

    Snapshot snapshot() const;

    /**
     * Borrow the current manifest. Only valid under the owning store's
     * reader epoch (MioDB::ReadGuard): publication retires the old
     * manifest through the retire callback, which defers destruction
     * until no reader is in flight. Never nullptr.
     *
     * Lock-free readers must pair the epoch enter with a seq_cst fence
     * before the first load (MioDB does); see retireManifest's fence
     * for the store-buffering pairing.
     */
    const LevelManifest *
    acquireManifest() const
    {
        return published_.load(std::memory_order_acquire);
    }

    /** Owning reference to the current manifest (locked; for tests,
     *  scans, and anything outside the reader epoch). */
    std::shared_ptr<const LevelManifest> manifestSnapshot() const;

    /**
     * Route retired manifests to the owner's deferred-reclamation
     * path. Without a callback (standalone levels in unit tests) the
     * old manifest is destroyed on republish, which is only safe when
     * no concurrent acquireManifest() readers exist.
     */
    void setRetireCallback(
        std::function<void(std::shared_ptr<const void>)> cb);

    /**
     * Maintain the OR-merged summary filter on membership changes.
     * Off by default: tables built with bits_per_key <= 0 carry empty
     * dummy filters, and a summary over those would wrongly skip the
     * level for every key.
     */
    void enableBloomSummary(bool enabled);

    /** Resident table count (excluding merge pair / migrating). */
    size_t size() const;
    /** True when a merge or migration is in flight. */
    bool busy() const;

    /**
     * Claim the two oldest tables for a zero-copy merge; they leave
     * the deque but stay reader-visible through the returned MergeOp.
     * @return nullptr if fewer than two tables are resident, a merge
     * is already active, or either candidate is quarantined (a corrupt
     * table must stay pinned in place so reads covering it keep
     * answering corruption; consuming it would launder its entries).
     */
    std::shared_ptr<MergeOp> beginMerge();

    /** Retire a completed merge (result already pushed downstream). */
    void finishMerge(const std::shared_ptr<MergeOp> &op);

    /**
     * Claim the oldest table for lazy-copy migration; it stays
     * reader-visible until finishMigration. @return nullptr if a
     * migration is in flight, the level is empty, or the oldest table
     * is quarantined (see beginMerge).
     */
    std::shared_ptr<PMTable> beginMigration();
    /**
     * The migration already in flight, if any: a migration whose
     * repository merge failed transiently stays claimed, and the
     * level's compactor uses this to retry it.
     */
    std::shared_ptr<PMTable> migratingTable() const;
    void finishMigration();

    /**
     * Total NVM bytes referenced by this level's tables, each arena
     * counted once (see PMTable::arenaBytes for @p seen).
     */
    size_t arenaBytes(std::unordered_set<const Arena *> *seen = nullptr) const;

    /** Resident and migrating tables that have no fence index. */
    std::vector<std::shared_ptr<PMTable>> unfencedTables() const;

    /**
     * Install @p fence on @p table and republish, if the table is
     * still resident or migrating here. @return false when it left
     * (claimed by a merge, demoted): a fence walked concurrently with
     * a merge may describe no consistent list, so it is discarded.
     */
    bool publishFence(const std::shared_ptr<PMTable> &table,
                      std::shared_ptr<const FenceIndex> fence);

    /** Drop every member's fence (DRAM state lost at reopen). */
    void dropFences();

  private:
    /**
     * Rebuild + install the manifest from current membership. Caller
     * holds mu_. @p added, when non-null, is the filter of a table
     * just appended, letting the summary update with one OR instead
     * of a full rebuild.
     */
    void republishLocked(std::shared_ptr<const BloomFilter> added);
    /** OR of all member filters, or nullptr (caller holds mu_). */
    std::shared_ptr<const BloomFilter>
    buildSummaryLocked(const LevelManifest &m) const;

    mutable std::mutex mu_;
    std::deque<std::shared_ptr<PMTable>> tables_;  //!< front = oldest
    std::shared_ptr<MergeOp> merge_;
    std::shared_ptr<PMTable> migrating_;
    bool summary_enabled_ = false;
    /** Owning reference behind published_; replaced under mu_. */
    std::shared_ptr<const LevelManifest> current_;
    std::atomic<const LevelManifest *> published_;
    std::function<void(std::shared_ptr<const void>)> retire_;
};

/** The stack of elastic-buffer levels L0..L(n-1). */
class LevelManager
{
  public:
    explicit LevelManager(int num_levels) : levels_(num_levels) {}

    BufferLevel &level(int i) { return levels_[i]; }
    const BufferLevel &level(int i) const { return levels_[i]; }
    int numLevels() const { return static_cast<int>(levels_.size()); }

    /** True when every level is empty and no merge is in flight. */
    bool quiescent() const;

    /**
     * True while any level has a merge or migration in flight. Used
     * to gate exact accounting comparisons: the governor's charge
     * settles only when the merge finishes.
     */
    bool anyLevelBusy() const;

    /** Drop every table's fence index (see BufferLevel). */
    void dropFences();
    /** DRAM bytes held by the published fence indexes. */
    size_t fenceBytes() const;

    /** Total resident PMTables across levels. */
    size_t totalTables() const;
    size_t totalArenaBytes() const;

  private:
    std::vector<BufferLevel> levels_;
};

} // namespace mio::miodb

#endif // MIO_MIODB_LEVEL_MANAGER_H_
