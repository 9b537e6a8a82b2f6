#include "miodb/one_piece_flush.h"

#include <cassert>

#include "sim/failpoint.h"
#include "util/clock.h"

namespace mio::miodb {

BloomFilter
makePmtableBloom(size_t memtable_capacity, int bits_per_key)
{
    if (bits_per_key <= 0)
        return BloomFilter(64, 1);
    // Expected keys per MemTable assuming ~64-byte entries as a floor
    // (skip-list node header + small KV); a fixed geometry per store
    // keeps every PMTable filter OR-mergeable.
    uint64_t expected = memtable_capacity / 64;
    if (expected == 0)
        expected = 1;
    return BloomFilter::makeForCapacity(expected, bits_per_key);
}

std::shared_ptr<PMTable>
onePieceFlush(lsm::MemTable *mem, sim::NvmDevice *device,
              StatsCounters *stats, int bits_per_key, uint64_t table_id)
{
    ScopedTimer flush_timer(&stats->flush_ns);

    Arena &src = mem->arena();
    const char *old_base = src.base();
    const size_t used = src.used();

    // The PMTable image is filled by one explicit bulk write, so the
    // arena itself must not double-charge allocations.
    auto dst = std::make_shared<Arena>(src.capacity(), device,
                                       /*charge_allocations=*/false);
    if (!dst->valid())
        return nullptr;  // NVM budget exhausted; flush retries later
    MIO_FAILPOINT("flush.before_copy");
    // kImage: a raw structure image whose link words must stay intact
    // (payload integrity is covered by per-entry checksums instead).
    device->write(dst->base(), old_base, used, sim::WriteKind::kImage);
    device->persist(dst->base(), used);
    MIO_FAILPOINT("flush.after_copy");
    dst->setUsed(used);
    stats->flushed_bytes.fetch_add(used, std::memory_order_relaxed);
    stats->storage_bytes_written.fetch_add(used,
                                           std::memory_order_relaxed);

    // The head node is the arena's first allocation (offset 0).
    auto *head = reinterpret_cast<SkipList::Node *>(dst->base());
    ptrdiff_t delta = dst->base() - old_base;

    // Pointer swizzling: every next pointer moves by the same delta.
    // This runs on the flush thread (background w.r.t. the writer).
    MIO_FAILPOINT("flush.before_swizzle");
    size_t fixed = SkipList::relocate(head, delta, old_base, used);
    device->chargeWrite(fixed * sizeof(void *));
    device->persist(dst->base(), used);
    MIO_FAILPOINT("flush.after_swizzle");
    stats->storage_bytes_written.fetch_add(fixed * sizeof(void *),
                                           std::memory_order_relaxed);

    // Build the mergeable bloom filter over the relocated image.
    BloomFilter bloom = makePmtableBloom(src.capacity(), bits_per_key);
    SkipList relocated(head, mem->list().entryCount());
    if (bits_per_key > 0) {
        for (SkipList::Node *n = relocated.first(); n != nullptr;
             n = n->nextRelaxed(0)) {
            bloom.add(n->key());
        }
    }

    auto table = std::make_shared<PMTable>(
        std::move(dst), head, mem->list().entryCount(), std::move(bloom),
        table_id, mem->minKey(), mem->maxKey());
    // The image is a byte copy, so the DRAM source's stride nodes,
    // shifted by the relocation delta, are the table's fences.
    table->setFence(FenceIndex::fromRelocatedList(mem->list(), delta));
    return table;
}

std::shared_ptr<PMTable>
nodeByNodeFlush(lsm::MemTable *mem, sim::NvmDevice *device,
                StatsCounters *stats, int bits_per_key, uint64_t table_id)
{
    ScopedTimer flush_timer(&stats->flush_ns);
    ScopedTimer ser_timer(&stats->serialization_ns);

    // Re-inserting draws fresh random node heights, which need not
    // match the source's; leave headroom so the copy cannot overflow.
    size_t capacity = mem->arena().capacity();
    capacity += capacity / 3 + 4096;
    auto dst = std::make_shared<Arena>(capacity, device,
                                       /*charge_allocations=*/true);
    if (!dst->valid())
        return nullptr;  // NVM budget exhausted; flush retries later
    auto list = std::make_unique<SkipList>(dst.get(), table_id * 31 + 7);

    BloomFilter bloom = makePmtableBloom(mem->arena().capacity(),
                                         bits_per_key);
    SkipList::Iterator it(&mem->list());
    FenceIndex::Builder fence;
    uint64_t bytes = 0;
    for (it.seekToFirst(); it.valid(); it.next()) {
        const SkipList::Node *n = list->insert(it.key(), it.seq(),
                                               it.entryType(), it.value());
        assert(n != nullptr &&
               "NVM arena sized to the MemTable cannot overflow");
        fence.add(it.key(), it.seq(), n);
        if (bits_per_key > 0)
            bloom.add(it.key());
        bytes += it.key().size() + it.value().size();
    }
    stats->flushed_bytes.fetch_add(bytes, std::memory_order_relaxed);
    stats->storage_bytes_written.fetch_add(dst->used(),
                                           std::memory_order_relaxed);

    SkipList::Node *head = list->head();
    auto table = std::make_shared<PMTable>(std::move(dst), head,
                                           mem->list().entryCount(),
                                           std::move(bloom), table_id,
                                           mem->minKey(), mem->maxKey());
    table->setFence(fence.finish());
    return table;
}

} // namespace mio::miodb
