/**
 * @file
 * One-piece flushing (paper Sec. 4.2): persist an immutable DRAM
 * MemTable into NVM with a single bulk memcpy, then swizzle the skip
 * list's internal pointers by the relocation delta. The alternative
 * node-by-node path (what hierarchical NoveLSM does) is provided for
 * the ablation benchmark.
 */
#ifndef MIO_MIODB_ONE_PIECE_FLUSH_H_
#define MIO_MIODB_ONE_PIECE_FLUSH_H_

#include <memory>

#include "kv/store_stats.h"
#include "lsm/memtable.h"
#include "miodb/pmtable.h"
#include "sim/nvm_device.h"

namespace mio::miodb {

/**
 * Flush @p mem into a new PMTable in @p device.
 *
 * Allocates an NVM arena of the MemTable's capacity, copies the whole
 * arena image with one metered write, fixes internal pointers by the
 * constant delta, and builds the table's bloom filter. Timing is
 * charged to stats->flush_ns / serialization_ns (the serialization
 * component is ~zero by construction -- that is the technique's point).
 *
 * @param bits_per_key bloom budget; geometry is derived from the
 *        MemTable capacity so all flushed tables' filters are mergeable
 * @param table_id age stamp for the resulting PMTable
 */
std::shared_ptr<PMTable>
onePieceFlush(lsm::MemTable *mem, sim::NvmDevice *device,
              StatsCounters *stats, int bits_per_key, uint64_t table_id);

/**
 * Ablation path: copy entries one by one into a fresh NVM skip list
 * (every insert pays a search plus a per-node memcpy into NVM). The
 * table's fence is picked from the nodes as they are written.
 */
std::shared_ptr<PMTable>
nodeByNodeFlush(lsm::MemTable *mem, sim::NvmDevice *device,
                StatsCounters *stats, int bits_per_key, uint64_t table_id);

/** Bloom geometry used for all PMTables of a store. */
BloomFilter makePmtableBloom(size_t memtable_capacity, int bits_per_key);

} // namespace mio::miodb

#endif // MIO_MIODB_ONE_PIECE_FLUSH_H_
