#include "lsm/memtable.h"

namespace mio::lsm {

MemTable::MemTable(size_t capacity_bytes, uint64_t rng_seed)
    : arena_(std::make_unique<mio::Arena>(capacity_bytes)),
      list_(arena_.get(), rng_seed)
{}

MemTable::MemTable(size_t capacity_bytes, sim::NvmDevice *device,
                   uint64_t rng_seed)
    : arena_(std::make_unique<mio::Arena>(capacity_bytes, device,
                                          /*charge_allocations=*/true)),
      list_(arena_.get(), rng_seed)
{}

bool
MemTable::add(const mio::Slice &key, uint64_t seq, mio::EntryType type,
              const mio::Slice &value)
{
    if (!list_.insert(key, seq, type, value))
        return false;
    if (min_key_.empty() || key.compare(mio::Slice(min_key_)) < 0)
        min_key_ = key.toString();
    if (max_key_.empty() || key.compare(mio::Slice(max_key_)) > 0)
        max_key_ = key.toString();
    if (seq > max_seq_)
        max_seq_ = seq;
    return true;
}

bool
MemTable::get(const mio::Slice &key, std::string *value,
              mio::EntryType *type, uint64_t *seq) const
{
    return list_.get(key, value, type, seq);
}

} // namespace mio::lsm
