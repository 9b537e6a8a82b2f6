/**
 * @file
 * DRAM fence index over one PMTable (DESIGN.md Sec. 5d). A PMTable's
 * skip list lives in NVM, so the classic top-down descent pays one
 * modelled media read per hop -- about log4(n) of them, ~18 for a
 * quarter-million-entry table. The fence index keeps, in DRAM, one
 * entry per level-1 node (height >= 2, about a quarter of the table):
 * a copy of the node's key, its sequence number and its node pointer.
 * A point lookup binary-searches those copies without touching NVM and
 * then walks level 0 from the last fence strictly below the key,
 * dereferencing about four nodes instead of descending the tower.
 *
 * A fence is immutable and describes exactly one list state: it is
 * valid while its table is resident in a level or migrating (no
 * writer relinks those lists), and is rebuilt whenever the list
 * changes -- from the DRAM MemTable at one-piece flush, by a DRAM
 * merge of both input fences at zero-copy merge, and by a charged
 * level-1 walk of the NVM list otherwise.
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

class FenceIndex
{
  public:
    using Node = SkipList::Node;

    /**
     * Fence of a one-piece-flushed image, built from its DRAM source
     * list: every level-1 node's pointer shifted by @p delta (the
     * relocation offset). Reads DRAM only.
     */
    static std::shared_ptr<const FenceIndex>
    fromRelocatedList(const SkipList &dram, ptrdiff_t delta);

    /**
     * Fence of an NVM-resident list by walking its level 1, charging
     * @p device one random read per node visited. Used where no DRAM
     * source exists: a copying merge's output, and tables adopted at
     * reopen.
     */
    static std::shared_ptr<const FenceIndex>
    fromNvmList(const SkipList &list, sim::NvmDevice *device);

    /**
     * Fence of a zero-copy merge result: the two input fences merged
     * in (key asc, seq desc) order, minus the nodes the merge
     * unlinked. Node heights survive a zero-copy relink, so the union
     * is exactly the result's level-1 set. Reads DRAM only.
     *
     * @param unlinked every node of height >= 2 the merge dropped
     */
    static std::shared_ptr<const FenceIndex>
    merge(const FenceIndex &a, const FenceIndex &b,
          std::vector<const Node *> unlinked);

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
