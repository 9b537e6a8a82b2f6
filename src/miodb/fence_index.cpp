#include "miodb/fence_index.h"

#include <algorithm>

namespace mio::miodb {

void
FenceIndex::append(const Slice &key, uint64_t seq, const Node *node)
{
    entries_.push_back(Entry{static_cast<uint32_t>(keys_.size()),
                             static_cast<uint32_t>(key.size()), seq,
                             node});
    keys_.append(key.data(), key.size());
}

std::shared_ptr<const FenceIndex>
FenceIndex::strideWalk(const SkipList &list, ptrdiff_t delta,
                       size_t *visited)
{
    Builder b;
    for (const Node *n = list.head()->next(0); n != nullptr;
         n = n->next(0)) {
        b.add(n->key(), n->seq,
              reinterpret_cast<const Node *>(
                  reinterpret_cast<const char *>(n) + delta));
    }
    *visited = b.fed() + 1;  // the head too
    return b.finish();
}

std::shared_ptr<const FenceIndex>
FenceIndex::fromRelocatedList(const SkipList &dram, ptrdiff_t delta)
{
    size_t visited = 0;
    return strideWalk(dram, delta, &visited);
}

std::shared_ptr<const FenceIndex>
FenceIndex::fromNvmList(const SkipList &list, sim::NvmDevice *device)
{
    // The head plus every level-0 node: one media read each.
    size_t visited = 0;
    auto f = strideWalk(list, 0, &visited);
    device->chargeRandomReads(static_cast<int>(visited));
    return f;
}

std::shared_ptr<const FenceIndex>
FenceIndex::merge(const FenceIndex &a, const FenceIndex &b,
                  std::vector<const Node *> unlinked)
{
    std::sort(unlinked.begin(), unlinked.end());
    auto gone = [&](const Node *n) {
        return std::binary_search(unlinked.begin(), unlinked.end(), n);
    };
    auto f = std::make_shared<FenceIndex>();
    f->entries_.reserve(a.size() + b.size());
    f->keys_.reserve(a.keys_.size() + b.keys_.size());
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() || j < b.size()) {
        const Entry *e;
        const FenceIndex *src;
        if (j == b.size() ||
            (i < a.size() &&
             SkipList::entryBefore(a.keyAt(a.entries_[i]),
                                   a.entries_[i].seq,
                                   b.keyAt(b.entries_[j]),
                                   b.entries_[j].seq))) {
            e = &a.entries_[i++];
            src = &a;
        } else {
            e = &b.entries_[j++];
            src = &b;
        }
        if (!gone(e->node))
            f->append(src->keyAt(*e), e->seq, e->node);
    }
    return f;
}

const FenceIndex::Node *
FenceIndex::floor(const Slice &key) const
{
    // First entry whose key is >= key; the one before it is the last
    // strictly below. Same-key versions share a key, so the walk
    // starts before the newest version of @p key.
    auto it = std::partition_point(
        entries_.begin(), entries_.end(),
        [&](const Entry &e) { return keyAt(e).compare(key) < 0; });
    if (it == entries_.begin())
        return nullptr;
    return std::prev(it)->node;
}

} // namespace mio::miodb
