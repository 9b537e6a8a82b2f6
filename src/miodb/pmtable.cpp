#include "miodb/pmtable.h"

namespace mio::miodb {

PMTable::PMTable(std::shared_ptr<Arena> arena, SkipList::Node *head,
                 uint64_t entry_count, BloomFilter bloom,
                 uint64_t table_id, std::string min_key,
                 std::string max_key)
    : list_(head, entry_count),
      bloom_(std::make_shared<const BloomFilter>(std::move(bloom))),
      table_id_(table_id), min_key_(std::move(min_key)),
      max_key_(std::move(max_key))
{
    arenas_.push_back(std::move(arena));
}

std::string
PMTable::minKey() const
{
    std::lock_guard<std::mutex> lock(meta_mu_);
    return min_key_;
}

std::string
PMTable::maxKey() const
{
    std::lock_guard<std::mutex> lock(meta_mu_);
    return max_key_;
}

bool
PMTable::coversKey(const Slice &key) const
{
    std::lock_guard<std::mutex> lock(meta_mu_);
    return Slice(min_key_).compare(key) <= 0 &&
           key.compare(Slice(max_key_)) <= 0;
}

bool
PMTable::bloomMayContain(const Slice &key) const
{
    std::shared_ptr<const BloomFilter> filter;
    {
        std::lock_guard<std::mutex> lock(meta_mu_);
        filter = bloom_;
    }
    return filter->mayContain(key);
}

size_t
PMTable::arenaBytes(std::unordered_set<const Arena *> *seen) const
{
    std::lock_guard<std::mutex> lock(meta_mu_);
    size_t total = 0;
    for (const auto &arena : arenas_) {
        if (seen == nullptr || seen->insert(arena.get()).second)
            total += arena->capacity();
    }
    return total;
}

void
PMTable::absorb(PMTable &other)
{
    // Consistent order: this (the merge target) first, then the
    // absorbed table. absorb() is only ever called by the single
    // compaction thread owning both tables.
    std::scoped_lock lock(meta_mu_, other.meta_mu_);
    for (const auto &arena : other.arenas_)
        arenas_.push_back(arena);  // co-own; never steal from readers
    // Copy-on-write: references captured by level manifests keep
    // probing the pre-merge filter, which is still sound for the keys
    // that table held at capture time.
    auto merged = std::make_shared<BloomFilter>(*bloom_);
    merged->merge(*other.bloom_);
    bloom_ = std::move(merged);
    if (Slice(other.min_key_).compare(Slice(min_key_)) < 0)
        min_key_ = other.min_key_;
    if (Slice(other.max_key_).compare(Slice(max_key_)) > 0)
        max_key_ = other.max_key_;
    merge_depth_ =
        (merge_depth_ > other.merge_depth_ ? merge_depth_
                                           : other.merge_depth_) + 1;
}

} // namespace mio::miodb
