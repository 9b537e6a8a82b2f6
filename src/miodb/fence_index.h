/**
 * @file
 * DRAM fence index over one PMTable (DESIGN.md Sec. 5d). A PMTable's
 * skip list lives in NVM, so the classic top-down descent pays one
 * modelled media read per hop -- about log4(n) of them, ~18 for a
 * quarter-million-entry table. The fence index keeps, in DRAM, one
 * entry per kFenceStride level-0 nodes (a quarter of the table): a
 * copy of the node's key, its sequence number and its node pointer.
 * A point lookup binary-searches those copies without touching NVM and
 * then walks level 0 from the last fence strictly below the key,
 * dereferencing about 3.5 nodes instead of descending the tower.
 *
 * A fence is immutable and describes one list state: it is valid
 * while its table is resident in a level or migrating (no writer
 * relinks those lists), and is rebuilt whenever the list changes --
 * from the DRAM MemTable at one-piece flush, by a DRAM union of both
 * input fences at zero-copy merge, and by a charged level-0 walk of
 * the NVM list otherwise. Any sorted subset of the list's linked
 * nodes is a sound fence; the walks space it evenly.
 */
#ifndef MIO_MIODB_FENCE_INDEX_H_
#define MIO_MIODB_FENCE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/nvm_device.h"
#include "skiplist/skiplist.h"

namespace mio::miodb {

/** A walk-built fence keeps every kFenceStride-th level-0 node. */
constexpr size_t kFenceStride = 4;

class FenceIndex
{
  public:
    using Node = SkipList::Node;

    /**
     * Fence of a one-piece-flushed image, built from its DRAM source
     * list: every kFenceStride-th node's pointer shifted by @p delta
     * (the relocation offset). Reads DRAM only.
     */
    static std::shared_ptr<const FenceIndex>
    fromRelocatedList(const SkipList &dram, ptrdiff_t delta);

    /**
     * Fence of an NVM-resident list by walking its level 0, charging
     * @p device one random read per node visited. Used where no fence
     * exists to carry over: tables adopted at reopen, and merges of
     * an input the reopen rebuild has not reached yet.
     */
    static std::shared_ptr<const FenceIndex>
    fromNvmList(const SkipList &list, sim::NvmDevice *device);

    /**
     * Fence of a zero-copy merge result: the two input fences merged
     * in (key asc, seq desc) order, minus the nodes the merge
     * unlinked. Every other node stays linked, so the union is a
     * sorted subset of the result's nodes -- not what a fresh walk
     * would pick, but all a lookup needs. Reads DRAM only.
     *
     * @param unlinked every node the merge dropped
     */
    static std::shared_ptr<const FenceIndex>
    merge(const FenceIndex &a, const FenceIndex &b,
          std::vector<const Node *> unlinked);

    /**
     * Builds a fence from a list's level-0 nodes fed in list order,
     * keeping every kFenceStride-th, counted from the head (which is
     * not fed): the one selection rule of every fresh fence. A writer
     * that links its output in order (node-by-node flush, copying
     * merge) feeds each node as it links it, so its fence reads no
     * NVM.
     */
    class Builder
    {
      public:
        Builder() : fence_(std::make_shared<FenceIndex>()) {}

        void
        add(const Slice &key, uint64_t seq, const Node *node)
        {
            if (++fed_ % kFenceStride == 0)
                fence_->append(key, seq, node);
        }

        /** Nodes fed so far. */
        size_t fed() const { return fed_; }

        std::shared_ptr<const FenceIndex> finish() { return fence_; }

      private:
        std::shared_ptr<FenceIndex> fence_;
        size_t fed_ = 0;
    };

    /**
     * The last fence node whose key sorts strictly below @p key, or
     * nullptr when none does (walk from the list head). Compares the
     * DRAM key copies only.
     */
    const Node *floor(const Slice &key) const;

    size_t size() const { return entries_.size(); }

    /** DRAM bytes this fence holds (entries plus key copies). */
    size_t
    memoryBytes() const
    {
        return entries_.capacity() * sizeof(Entry) + keys_.capacity();
    }

  private:
    /** Tests read the entries through it. */
    friend struct FenceIndexTestPeer;

    /** Builder over @p list's level-0 nodes, each shifted by
     *  @p delta; @p visited gets the nodes it dereferenced. */
    static std::shared_ptr<const FenceIndex>
    strideWalk(const SkipList &list, ptrdiff_t delta, size_t *visited);

    struct Entry {
        uint32_t key_off;
        uint32_t key_len;
        uint64_t seq;
        const Node *node;
    };

    void append(const Slice &key, uint64_t seq, const Node *node);
    Slice
    keyAt(const Entry &e) const
    {
        return Slice(keys_.data() + e.key_off, e.key_len);
    }

    std::vector<Entry> entries_;
    std::string keys_;
};

} // namespace mio::miodb

#endif // MIO_MIODB_FENCE_INDEX_H_
