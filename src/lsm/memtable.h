/**
 * @file
 * MemTable: a skip list over a fixed contiguous arena, used as the
 * DRAM write buffer by every store and, with an NVM-backed arena, as
 * NoveLSM's mutable persistent MemTable.
 */
#ifndef MIO_LSM_MEMTABLE_H_
#define MIO_LSM_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "mem/arena.h"
#include "skiplist/skiplist.h"
#include "util/slice.h"

namespace mio::lsm {

class MemTable
{
  public:
    /** DRAM-resident MemTable of @p capacity_bytes. */
    explicit MemTable(size_t capacity_bytes, uint64_t rng_seed = 0x5eed);

    /**
     * NVM-resident mutable MemTable (NoveLSM flat / NoSST designs):
     * node allocations are charged as NVM writes.
     */
    MemTable(size_t capacity_bytes, sim::NvmDevice *device,
             uint64_t rng_seed = 0x5eed);

    /**
     * Insert an entry.
     * @return false when the arena is full (caller rotates the table).
     */
    bool add(const mio::Slice &key, uint64_t seq, mio::EntryType type,
             const mio::Slice &value);

    /** Newest entry for @p key. @return true if any version exists. */
    bool get(const mio::Slice &key, std::string *value,
             mio::EntryType *type, uint64_t *seq = nullptr) const;

    mio::SkipList &list() { return list_; }
    const mio::SkipList &list() const { return list_; }
    mio::Arena &arena() { return *arena_; }
    const mio::Arena &arena() const { return *arena_; }

    size_t memoryUsed() const { return arena_->used(); }
    size_t capacity() const { return arena_->capacity(); }
    uint64_t entryCount() const { return list_.entryCount(); }
    bool isNvm() const { return arena_->isNvm(); }

    /** Smallest/largest user keys ever added (empty if none). */
    const std::string &minKey() const { return min_key_; }
    const std::string &maxKey() const { return max_key_; }
    /** Highest sequence number ever added (0 if none). */
    uint64_t maxSequence() const { return max_seq_; }

    /** Release arena ownership (one-piece flush keeps the image). */
    std::unique_ptr<mio::Arena> releaseArena() { return std::move(arena_); }

  private:
    std::unique_ptr<mio::Arena> arena_;
    mio::SkipList list_;
    std::string min_key_;
    std::string max_key_;
    uint64_t max_seq_ = 0;
};

} // namespace mio::lsm

#endif // MIO_LSM_MEMTABLE_H_
