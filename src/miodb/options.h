/**
 * @file
 * MioDB configuration. Defaults follow the paper's evaluation setup
 * scaled to simulation size (all sizes are overridable by benches).
 */
#ifndef MIO_MIODB_OPTIONS_H_
#define MIO_MIODB_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "lsm/version_set.h"

namespace mio::miodb {

struct MioOptions {
    /** DRAM MemTable capacity (paper: 64 MB; scaled default 1 MB). */
    size_t memtable_size = 1u << 20;

    /**
     * Number of elastic-buffer levels L0..L(n-1); the data repository
     * sits below them. The paper settles on 8 (Fig. 9). One compaction
     * thread serves each level when parallel compaction is on.
     */
    int elastic_levels = 8;

    /** Bloom filter bits per key (paper: 16). 0 disables filters. */
    int bits_per_key = 16;

    /** Max immutable MemTables queued before writers stall. */
    int max_immutable_memtables = 2;

    /**
     * Optional ceiling on the elastic buffer's NVM footprint (paper
     * Sec. 5.4 caps it at 64 GB for the Fig. 14 sweep). 0 = unlimited.
     * When the ceiling is hit, writers are throttled (a cumulative
     * stall) until compaction migrates tables to the repository.
     */
    uint64_t nvm_buffer_cap_bytes = 0;

    /** Ablations (paper Sec. 4 techniques, each individually toggleable). */
    bool one_piece_flush = true;   //!< false: NoveLSM-style per-node copy
    bool zero_copy_merge = true;   //!< false: copying merge in the buffer
    bool parallel_compaction = true; //!< false: one thread for all levels

    /**
     * When false, no compaction threads are started: flushed PMTables
     * stay where they (or a test/bench) put them, so a populated
     * multi-level buffer shape can be held static. Read-path benches
     * and manifest tests use this; production keeps it on.
     */
    bool auto_compaction = true;

    /**
     * Worker threads in the unified background scheduler (flush,
     * zero-copy / lazy-copy merges, SSD compaction, WAL recycling,
     * scrubbing all run there as typed jobs). 0 sizes the pool
     * automatically: elastic_levels + 2 with parallel compaction
     * (one slot per level plus flush and housekeeping, matching the
     * paper's thread-per-level design), 1 without, plus the SSD
     * tier's compaction_threads in hierarchy mode. Ignored when
     * deterministic_background is set.
     */
    int background_workers = 0;

    /**
     * Deterministic mode for the crash/failpoint harness: the
     * scheduler spawns no worker threads, and queued maintenance jobs
     * run inline -- in strict priority order -- on whichever thread
     * blocks on store progress (rotation stalls, waitIdle). One
     * thread of execution, fully reproducible interleavings.
     */
    bool deterministic_background = false;

    /** Write-ahead logging (required for crash consistency). */
    bool enable_wal = true;

    /**
     * Group commit (leader/follower write pipeline): concurrent
     * writers queue up and the front writer commits the whole group
     * with a single combined WAL record and one pass over the
     * MemTable, amortizing the per-record NVM latency across every
     * writer in the group. Disabling it degenerates each group to a
     * single writer (the pre-pipeline behaviour).
     */
    bool group_commit = true;

    /**
     * Ceiling on the WAL payload bytes one commit group may combine.
     * A larger budget amortizes more per-record cost but lengthens
     * the latency of the writers caught in a big group.
     */
    size_t max_group_bytes = 1u << 20;

    /**
     * DRAM-NVM-SSD mode (paper Sec. 5.4): the data repository becomes
     * a leveled LSM of SSTables on the SSD instead of a huge PMTable.
     */
    bool use_ssd_repository = false;
    lsm::LsmOptions ssd_lsm;  //!< geometry of the SSD-mode repository

    /**
     * Blob-name namespace for this instance's SSD-resident files.
     * WAL segments and PMTables are namespaced per instance already
     * (each shard owns its WalRegistry and NvmState), but the
     * simulated SSD is one global name space: without a tag, two
     * shards both starting at table id 1 would write the same SSTable
     * names. ShardedMioDB stamps "s<i>/" here; standalone instances
     * leave it empty.
     */
    std::string shard_tag;

    // ---- media-fault tolerance (see DESIGN.md Sec. 5e) -------------

    /**
     * Verify the per-entry checksum on every NVM-resident hit
     * (PMTables and PM repository): a mismatch surfaces
     * Status::corruption instead of the corrupt or a stale value.
     * MemTable reads (DRAM, outside the modelled fault domain) are
     * not verified.
     */
    bool verify_read_checksums = true;

    /**
     * Background scrubber period in milliseconds; 0 disables the
     * scrubber thread. Each pass walks every PMTable, the data
     * repository and (SSD mode) all SSTables, verifies checksums and
     * quarantines corrupt tables.
     */
    uint64_t scrub_interval_ms = 0;

    /**
     * Scrub throttle: a pass paces itself so checksum verification
     * consumes at most this much media bandwidth (0 = unthrottled).
     * Keeps the scrubber's read traffic from competing with
     * foreground gets for memory bandwidth; see EXPERIMENTS.md for
     * the measured overhead.
     */
    uint64_t scrub_rate_mb_per_sec = 16;

    /**
     * NVM exhaustion watermarks, as fractions of the device's
     * capacity budget (NvmDevice::capacityBytes(); ignored when the
     * device has no budget). Above the soft watermark every write is
     * slowed by write_slowdown_micros and migration to the repository
     * is boosted; above the hard watermark writers stall (bounded by
     * write_stall_timeout_ms) and then receive Status::busy.
     */
    double nvm_soft_watermark = 0.85;
    double nvm_hard_watermark = 0.95;
    uint64_t write_slowdown_micros = 100;
    uint64_t write_stall_timeout_ms = 1000;

    // ---- key-value separation (see DESIGN.md Sec. 5i) --------------

    /**
     * Values of at least this many bytes are appended once to the
     * NVM value log at write time; the index structures (MemTable,
     * PMTables, SSTables) then carry a fixed-size ValuePointer instead
     * of the bytes, so flushes and compactions move pointers, not
     * payloads. 0 disables separation entirely (values stay inline).
     */
    size_t value_separation_threshold = 512;

    /**
     * Capacity of one value-log segment. Appends fill the head
     * segment and seal it when full; GC reclaims whole sealed
     * segments. Smaller segments reclaim at finer granularity but
     * cost more region allocations.
     */
    size_t vlog_segment_bytes = 4u << 20;

    /**
     * Garbage-collect a sealed segment once its live fraction
     * (live_bytes / segment_bytes) drops below this ratio. Surviving
     * values are relocated to the head segment; the emptied segment
     * is unlinked once no pinned snapshot can still reach it.
     * <= 0 disables GC.
     */
    double vlog_gc_trigger_ratio = 0.5;

    // ---- memory governor (DESIGN.md Sec. 5k) ----------------------

    /**
     * Ceiling on total value-log segment capacity; appends that
     * would open a segment beyond it fail with Status::busy.
     * 0 = bounded only by the NVM device budget.
     */
    uint64_t vlog_budget_bytes = 0;
};

} // namespace mio::miodb

#endif // MIO_MIODB_OPTIONS_H_
