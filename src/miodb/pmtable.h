/**
 * @file
 * PMTable: a persistent skip list in emulated NVM, the unit the
 * elastic buffer manages (paper Sec. 4.1). A PMTable starts life as a
 * one-piece-flushed MemTable image and grows through zero-copy merges,
 * after which it references the arenas of every table merged into it;
 * all of that memory is reclaimed together after the table is finally
 * lazy-copied into the data repository.
 */
#ifndef MIO_MIODB_PMTABLE_H_
#define MIO_MIODB_PMTABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "bloom/bloom_filter.h"
#include "mem/arena.h"
#include "miodb/fence_index.h"
#include "skiplist/skiplist.h"

namespace mio::miodb {

struct MergeOp;

class PMTable
{
  public:
    /**
     * Wrap a relocated (or freshly built) skip-list image.
     *
     * @param arena NVM arena holding the image (shared: merges move
     *        arena ownership between tables)
     * @param head head node within the arena
     * @param entry_count live entries
     * @param bloom per-table filter (fixed geometry for OR-merging)
     * @param table_id monotonically increasing age stamp
     */
    PMTable(std::shared_ptr<Arena> arena, SkipList::Node *head,
            uint64_t entry_count, BloomFilter bloom, uint64_t table_id,
            std::string min_key, std::string max_key);

    SkipList &list() { return list_; }
    const SkipList &list() const { return list_; }
    /** Unsynchronized access; safe only when no merge targets this. */
    const BloomFilter &bloom() const { return *bloom_; }

    /**
     * Current filter as an immutable shared snapshot. absorb() swaps
     * in a freshly merged filter instead of mutating in place, so a
     * captured reference stays valid (and probe-safe) forever -- this
     * is what lets a level manifest probe member filters without
     * taking meta_mu_ per get.
     */
    std::shared_ptr<const BloomFilter>
    bloomRef() const
    {
        std::lock_guard<std::mutex> lock(meta_mu_);
        return bloom_;
    }

    /**
     * The DRAM fence index over this table's current list, or nullptr
     * when none is built (gets then use the plain descent). Like the
     * bloom filter it is an immutable shared snapshot: setFence()
     * replaces, never mutates, so a level manifest can capture it.
     */
    std::shared_ptr<const FenceIndex>
    fence() const
    {
        std::lock_guard<std::mutex> lock(meta_mu_);
        return fence_;
    }
    void
    setFence(std::shared_ptr<const FenceIndex> fence)
    {
        std::lock_guard<std::mutex> lock(meta_mu_);
        fence_ = std::move(fence);
    }

    uint64_t tableId() const { return table_id_; }
    uint64_t entryCount() const { return list_.entryCount(); }

    std::string minKey() const;
    std::string maxKey() const;

    /** True when @p key falls within [minKey, maxKey]. */
    bool coversKey(const Slice &key) const;

    /** Bloom probe, safe against a concurrent absorb(). */
    bool bloomMayContain(const Slice &key) const;

    /**
     * Bytes of NVM the referenced arenas reserve. With @p seen, only
     * arenas not yet in it count (and are added): a zero-copy merge
     * co-owns arenas across tables, so a footprint sum over several
     * tables must count each arena once.
     */
    size_t arenaBytes(std::unordered_set<const Arena *> *seen = nullptr) const;

    size_t
    arenaCount() const
    {
        std::lock_guard<std::mutex> lock(meta_mu_);
        return arenas_.size();
    }

    /**
     * Share @p other's arenas, bloom bits, and key range after a
     * zero-copy merge moved its nodes into this table. The arenas are
     * co-owned (not stolen) so readers still holding @p other keep
     * its memory alive; everything is reclaimed together once the
     * last reference to the merged chain drops after lazy-copy.
     */
    void absorb(PMTable &other);

    /** Number of zero-copy merges that produced this table. */
    int mergeDepth() const { return merge_depth_; }

    // ---- integrity quarantine (scrubber, see DESIGN.md Sec. 5e) ----

    /**
     * Mark this table corrupt: reads whose key could live here answer
     * Status::corruption instead of serving (or skipping past) its
     * entries, and compaction stops consuming it.
     */
    void quarantine() { quarantined_.store(true, std::memory_order_release); }
    bool
    isQuarantined() const
    {
        return quarantined_.load(std::memory_order_acquire);
    }

    // ---- merge registration (snapshot iterators) -----------------
    //
    // A pinned snapshot iterator anchored on this table must follow
    // nodes a zero-copy merge moves out from under it. beginMerge()
    // registers the MergeOp on BOTH participants; finishMerge() clears
    // both and gives the emptied newtable a one-way absorbed-into link
    // to the result instead, so an iterator pinning it can chase its
    // entries there. No table may keep a done op: the op holds both
    // tables, so that would be a cycle. A link only ever points at the
    // older table a merge kept, so links cannot form one.

    void setActiveMerge(std::shared_ptr<MergeOp> op);
    /**
     * Drop the merge registration. @p absorbed_into, when set, is the
     * table that now holds every entry this one had.
     */
    void retireMerge(std::shared_ptr<PMTable> absorbed_into = nullptr);
    std::shared_ptr<MergeOp> activeMerge() const;
    std::shared_ptr<PMTable> absorbedInto() const;

    /**
     * Bumped on every registration change (never on node movement).
     * An iterator that sees the same epoch before and after a plain
     * pointer step knows no merge started or retired in between.
     */
    uint64_t
    mergeEpoch() const
    {
        return merge_epoch_.load(std::memory_order_seq_cst);
    }

  private:
    SkipList list_;
    /** Guards arenas_, bloom_, fence_, and the key range. */
    mutable std::mutex meta_mu_;
    std::vector<std::shared_ptr<Arena>> arenas_;
    /** Copy-on-write: absorb() replaces, never mutates (see bloomRef). */
    std::shared_ptr<const BloomFilter> bloom_;
    /** DRAM only: dropped when NvmState is adopted at reopen. */
    std::shared_ptr<const FenceIndex> fence_;
    uint64_t table_id_;
    std::string min_key_;
    std::string max_key_;
    int merge_depth_ = 0;
    std::atomic<bool> quarantined_{false};
    /** Guards active_merge_ and absorbed_into_ (see setActiveMerge). */
    mutable std::mutex merge_mu_;
    std::shared_ptr<MergeOp> active_merge_;
    std::shared_ptr<PMTable> absorbed_into_;
    std::atomic<uint64_t> merge_epoch_{0};
};

/**
 * The filter of a table merged from two tables with filters @p a and
 * @p b, whose entries now all live in @p merged: the OR of the two when
 * they share a geometry. Filters sized from different MemTable sizes
 * (a reopen with another memtable_size) cannot be OR-ed, so then the
 * filter is rebuilt from @p merged's keys at the larger of the two
 * geometries.
 */
BloomFilter mergeTableBlooms(const BloomFilter &a, const BloomFilter &b,
                             const SkipList &merged);

/**
 * Shared state of an in-flight zero-copy merge. While active, readers
 * must consult: newtable, then the insertion mark, then oldtable
 * (paper Sec. 4.3 cases 1-2) -- the node in transit is always visible
 * through at least one of the three.
 */
struct MergeOp {
    std::shared_ptr<PMTable> newt;  //!< the younger of the oldest two
    std::shared_ptr<PMTable> oldt;  //!< merge target (becomes result)
    /** Node currently being moved; persistent state for recovery. */
    std::atomic<SkipList::Node *> mark{nullptr};
    std::atomic<bool> done{false};
    /**
     * Odd while a moved node is being linked into the oldtable. Linking
     * rewrites the node's forward pointers to oldtable successors, so a
     * newtable descent standing on it would continue in the oldtable
     * and miss newer versions still in the newtable: a newtable probe
     * is only an answer if this stayed even and unchanged around it.
     */
    std::atomic<uint64_t> relink_seq{0};
    /**
     * Combined key range of the pair, captured at beginMerge(). The
     * union range is invariant while nodes shuffle between the two
     * tables, so readers can range-prune the whole in-flight pair
     * without locking either table's metadata.
     */
    std::string min_key;
    std::string max_key;

    bool
    coversKey(const Slice &key) const
    {
        return Slice(min_key).compare(key) <= 0 &&
               key.compare(Slice(max_key)) <= 0;
    }
};

// Defined after MergeOp: resetting a shared_ptr<MergeOp> needs the
// complete type.

inline void
PMTable::setActiveMerge(std::shared_ptr<MergeOp> op)
{
    std::lock_guard<std::mutex> lock(merge_mu_);
    active_merge_ = std::move(op);
    merge_epoch_.fetch_add(1, std::memory_order_seq_cst);
}

inline void
PMTable::retireMerge(std::shared_ptr<PMTable> absorbed_into)
{
    std::lock_guard<std::mutex> lock(merge_mu_);
    active_merge_.reset();
    absorbed_into_ = std::move(absorbed_into);
    merge_epoch_.fetch_add(1, std::memory_order_seq_cst);
}

inline std::shared_ptr<MergeOp>
PMTable::activeMerge() const
{
    std::lock_guard<std::mutex> lock(merge_mu_);
    return active_merge_;
}

inline std::shared_ptr<PMTable>
PMTable::absorbedInto() const
{
    std::lock_guard<std::mutex> lock(merge_mu_);
    return absorbed_into_;
}

} // namespace mio::miodb

#endif // MIO_MIODB_PMTABLE_H_
