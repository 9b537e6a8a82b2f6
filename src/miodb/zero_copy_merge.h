/**
 * @file
 * Zero-copy compaction (paper Sec. 4.3): merge the newer of a level's
 * two oldest PMTables into the older one purely by relinking skip-list
 * pointers -- KV bytes never move, so the merge contributes no write
 * amplification. An atomic insertion mark keeps the node in transit
 * visible to lock-free concurrent readers, and doubles as the
 * persistent state from which an interrupted merge resumes after a
 * crash (paper Sec. 4.7).
 */
#ifndef MIO_MIODB_ZERO_COPY_MERGE_H_
#define MIO_MIODB_ZERO_COPY_MERGE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "kv/store_stats.h"
#include "miodb/pmtable.h"
#include "sim/nvm_device.h"
#include "sstable/internal_key.h"

namespace mio::miodb {

/**
 * Test hook: invoked before each node move with the number of nodes
 * already moved; returning false pauses the merge at that point (a
 * simulated crash). Production passes nullptr.
 */
using MergeThrottle = std::function<bool(uint64_t nodes_moved)>;

/**
 * Reclamation hook: invoked with (type, value) for every version a
 * merge drops (shadowed by a newer version, or a tombstone collapsing
 * at the bottom). MioDB uses it to decay value-log live-bytes
 * accounting when a dropped entry is a kValuePointer. Must be cheap
 * and must not call back into the merging structures. May be null.
 */
using DropNotify = std::function<void(EntryType, const Slice &)>;

/**
 * Run the zero-copy merge of op->newt into op->oldt.
 *
 * On completion op->oldt contains every live entry of both tables
 * (older duplicate versions unlinked, memory retained until lazy-copy
 * reclamation), op->newt is empty, and op->done is true. Pointer
 * updates are metered as 8-byte NVM writes. When both inputs carry a
 * fence index, op->oldt gets their DRAM union minus the unlinked
 * nodes; otherwise (and after any resumed merge) it gets none.
 *
 * @param keep_seq oldest pinned snapshot bound: an older version is
 * only unlinked when a newer version with seq <= keep_seq shadows it
 * for every live snapshot. Pass kMaxSequence (the default) when no
 * snapshots are pinned to reclaim everything but the newest.
 *
 * @return true if the merge ran to completion; false if @p throttle
 * paused it (resume with resumeZeroCopyMerge).
 */
bool zeroCopyMerge(MergeOp *op, sim::NvmDevice *device,
                   StatsCounters *stats,
                   const MergeThrottle &throttle = nullptr,
                   uint64_t keep_seq = kMaxSequence,
                   const DropNotify &drop_notify = nullptr);

/**
 * Crash-recovery entry: finish an interrupted merge. Per the paper's
 * protocol, if the insertion mark holds a node that never reached the
 * oldtable it is inserted first, then the remaining newtable entries
 * are merged as usual.
 */
bool resumeZeroCopyMerge(MergeOp *op, sim::NvmDevice *device,
                         StatsCounters *stats,
                         const MergeThrottle &throttle = nullptr,
                         uint64_t keep_seq = kMaxSequence,
                         const DropNotify &drop_notify = nullptr);

/**
 * Ablation baseline: merge by physically copying every live entry of
 * both tables into a freshly allocated PMTable (classic compaction --
 * full write amplification). The new table's fence is picked from its
 * nodes as they are written. @return the new table, or nullptr when
 * the NVM capacity budget denies the target arena (the caller falls
 * back to the allocation-free zero-copy merge).
 */
std::shared_ptr<PMTable>
copyingMerge(const std::shared_ptr<PMTable> &newt,
             const std::shared_ptr<PMTable> &oldt,
             sim::NvmDevice *device, StatsCounters *stats,
             uint64_t table_id, uint64_t keep_seq = kMaxSequence,
             const DropNotify &drop_notify = nullptr);

/**
 * Query a merging pair with the paper's three-step protocol:
 * newtable -> insertion mark -> oldtable.
 * @return true if any version of @p key was found. With @p verify,
 * entry checksums are checked and a mismatch sets @p corrupt instead
 * of returning the damaged value.
 */
bool mergeAwareGet(const MergeOp *op, const Slice &key, std::string *value,
                   EntryType *type, uint64_t *seq, bool verify = false,
                   bool *corrupt = nullptr);

} // namespace mio::miodb

#endif // MIO_MIODB_ZERO_COPY_MERGE_H_
