/**
 * @file
 * Shared statistics counters every store implementation feeds; the
 * bench harness reads snapshots to reproduce the paper's cost
 * breakdowns (Table 1) and WA figures (Fig. 11).
 */
#ifndef MIO_KV_STORE_STATS_H_
#define MIO_KV_STORE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace mio {

/**
 * Live atomic counters. Components hold a pointer to their store's
 * instance and bump the fields they are responsible for.
 */
struct StatsCounters {
    // -- stall accounting (paper Sec. 3.1 definitions) --
    /** Writer fully blocked (immutable not yet flushed / L0 stop). */
    std::atomic<uint64_t> interval_stall_ns{0};
    /** Deliberate per-write slowdowns near trigger thresholds. */
    std::atomic<uint64_t> cumulative_stall_ns{0};

    // -- flush path --
    std::atomic<uint64_t> flush_ns{0};
    std::atomic<uint64_t> flush_count{0};
    std::atomic<uint64_t> flushed_bytes{0};
    /** Time spent serializing MemTable entries to table format. */
    std::atomic<uint64_t> serialization_ns{0};
    /** Time spent reading+decoding serialized blocks on the read path. */
    std::atomic<uint64_t> deserialization_ns{0};

    // -- traffic --
    std::atomic<uint64_t> user_bytes_written{0};
    std::atomic<uint64_t> wal_bytes_written{0};
    /** Bytes written to storage by flushes + compactions. */
    std::atomic<uint64_t> storage_bytes_written{0};

    // -- compaction --
    std::atomic<uint64_t> compaction_count{0};
    std::atomic<uint64_t> compaction_ns{0};
    std::atomic<uint64_t> zero_copy_merges{0};
    std::atomic<uint64_t> lazy_copy_merges{0};

    // -- ops --
    std::atomic<uint64_t> puts{0};
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> bloom_filter_skips{0};
    /** Whole buffer levels skipped by the per-level bloom summary. */
    std::atomic<uint64_t> bloom_summary_skips{0};
    /** Per-level lookup retries after a concurrent manifest publish. */
    std::atomic<uint64_t> read_retries{0};
    /** Table probes answered by a DRAM fence walk (no descent). */
    std::atomic<uint64_t> fence_probes{0};
    /** NVM nodes those fence walks dereferenced. */
    std::atomic<uint64_t> fence_walk_nodes{0};
    /** Gauge: DRAM bytes held by published fence indexes. */
    std::atomic<uint64_t> fence_bytes{0};

    // -- group commit (write pipeline) --
    /** Log2-ish buckets of writers-per-group: 1, 2, 3-4, 5-8, ... */
    static constexpr int kGroupSizeBuckets = 8;
    /** Commit groups published by a leader writer. */
    std::atomic<uint64_t> groups_committed{0};
    /** Writer records committed through groups (>= groups_committed). */
    std::atomic<uint64_t> group_writers{0};
    /** WAL record appends avoided by combining writers into groups. */
    std::atomic<uint64_t> wal_appends_saved{0};
    std::atomic<uint64_t> group_size_hist[kGroupSizeBuckets]{};

    // -- media-fault tolerance (NVM watermarks, scrubber, retries) --
    /** Writes slowed down above the soft NVM watermark. */
    std::atomic<uint64_t> write_slowdowns{0};
    /** Writers that entered a bounded hard-watermark stall. */
    std::atomic<uint64_t> write_stalls{0};
    /** Writes rejected with Status::busy after a stall timed out. */
    std::atomic<uint64_t> busy_rejections{0};
    std::atomic<uint64_t> scrub_passes{0};
    /** Payload bytes whose checksums the scrubber verified. */
    std::atomic<uint64_t> scrub_bytes{0};
    /** Checksum mismatches found (scrubber or read-path verify). */
    std::atomic<uint64_t> corruptions_detected{0};
    /** PMTables/SSTables quarantined after a checksum mismatch. */
    std::atomic<uint64_t> tables_quarantined{0};
    /** Transient SSD I/O errors absorbed by retry-with-backoff. */
    std::atomic<uint64_t> ssd_io_retries{0};
    /** WAL frames dropped by recovery as corrupt (torn/flipped). */
    std::atomic<uint64_t> wal_corrupt_frames{0};

    // -- snapshots (gauges: incremented at pin, decremented at
    //    release; nonzero at close means a leaked pin) --
    /** Snapshots currently held by callers. */
    std::atomic<uint64_t> snapshots_live{0};
    /** Level manifests (and table sets) pinned by live snapshots. */
    std::atomic<uint64_t> snapshots_pinned_manifests{0};

    // -- value log (key-value separation) --
    /** Values separated into the NVM value log at write time. */
    std::atomic<uint64_t> vlog_appends{0};
    /** Payload bytes appended to the value log (user + GC traffic). */
    std::atomic<uint64_t> vlog_appended_bytes{0};
    /** Pointer dereferences served by the value log on reads/scans. */
    std::atomic<uint64_t> vlog_deref_reads{0};
    /** GC passes that examined at least one victim segment. */
    std::atomic<uint64_t> vlog_gc_passes{0};
    /** Live bytes GC re-appended to the head segment. */
    std::atomic<uint64_t> vlog_gc_relocated_bytes{0};
    /** Segment capacity returned to the device by GC unlinks. */
    std::atomic<uint64_t> vlog_gc_reclaimed_bytes{0};
    std::atomic<uint64_t> vlog_segments_created{0};
    std::atomic<uint64_t> vlog_segments_unlinked{0};
    /** Gauge: segments currently holding data. */
    std::atomic<uint64_t> vlog_segments_live{0};

    // -- recovery (WAL replay at open) --
    /** WAL records applied by the open-time replay. */
    std::atomic<uint64_t> wal_frames_replayed{0};
    /** Always 0: no record is replayed on demand after open. */
    std::atomic<uint64_t> wal_frames_on_demand{0};
    /** open() -> store serving (includes the replay). */
    std::atomic<uint64_t> recovery_ms_to_ready{0};

    // -- memory governor + DRAM read cache --
    /** Read-cache probes answered from DRAM. */
    std::atomic<uint64_t> cache_hits{0};
    /** Read-cache probes that fell through to the levels/repo. */
    std::atomic<uint64_t> cache_misses{0};
    /** Entries evicted by LRU pressure (capacity, not staleness). */
    std::atomic<uint64_t> cache_evictions{0};
    /** Invalidation events (flush installs, quarantine clears). */
    std::atomic<uint64_t> cache_invalidations{0};
    /** Tuner decisions that changed a budget or watermark. */
    std::atomic<uint64_t> tuner_moves{0};
    // Gauges published by the MemoryGovernor (point-in-time bytes).
    std::atomic<uint64_t> gov_memtable_bytes{0};
    std::atomic<uint64_t> gov_cache_bytes{0};
    std::atomic<uint64_t> gov_nvm_buffer_bytes{0};
    std::atomic<uint64_t> gov_vlog_bytes{0};
    std::atomic<uint64_t> gov_memtable_limit{0};
    std::atomic<uint64_t> gov_cache_limit{0};

    // -- background scheduler (per-job-class observability) --
    /** Job classes: flush, lcm, zcm, ssd, wal-recycle, scrub, vloggc,
     *  shard-open, memtune. */
    static constexpr int kJobClasses = 9;
    /** Decade latency buckets: <1us, <10us, ..., <1s, >=1s. */
    static constexpr int kSchedLatBuckets = 8;
    std::atomic<uint64_t> sched_submitted[kJobClasses]{};
    std::atomic<uint64_t> sched_completed[kJobClasses]{};
    /** Jobs discarded unexecuted (freeze/shutdown). */
    std::atomic<uint64_t> sched_dropped[kJobClasses]{};
    /** Total submit->dispatch wait per class. */
    std::atomic<uint64_t> sched_queue_ns[kJobClasses]{};
    /** Total execution time per class. */
    std::atomic<uint64_t> sched_run_ns[kJobClasses]{};
    std::atomic<uint64_t> sched_queue_hist[kJobClasses][kSchedLatBuckets]{};
    std::atomic<uint64_t> sched_run_hist[kJobClasses][kSchedLatBuckets]{};
    /** Dispatches where an urgency probe overrode base priority. */
    std::atomic<uint64_t> sched_escalations{0};

    /** Bucket index for a group of @p writers members. */
    static int
    groupSizeBucket(uint64_t writers)
    {
        int b = 0;
        while (writers > 1 && b < kGroupSizeBuckets - 1) {
            writers = (writers + 1) >> 1;
            b++;
        }
        return b;
    }

    /** Decade bucket index for a latency of @p ns nanoseconds. */
    static int
    schedLatBucket(uint64_t ns)
    {
        int b = 0;
        while (ns >= 1000 && b < kSchedLatBuckets - 1) {
            ns /= 10;
            b++;
        }
        return b;
    }
};

/** Plain-value snapshot of StatsCounters. */
struct StatsSnapshot {
    uint64_t interval_stall_ns = 0;
    uint64_t cumulative_stall_ns = 0;
    uint64_t flush_ns = 0;
    uint64_t flush_count = 0;
    uint64_t flushed_bytes = 0;
    uint64_t serialization_ns = 0;
    uint64_t deserialization_ns = 0;
    uint64_t user_bytes_written = 0;
    uint64_t wal_bytes_written = 0;
    uint64_t storage_bytes_written = 0;
    uint64_t compaction_count = 0;
    uint64_t compaction_ns = 0;
    uint64_t zero_copy_merges = 0;
    uint64_t lazy_copy_merges = 0;
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
    uint64_t scans = 0;
    uint64_t bloom_filter_skips = 0;
    uint64_t bloom_summary_skips = 0;
    uint64_t read_retries = 0;
    uint64_t fence_probes = 0;
    uint64_t fence_walk_nodes = 0;
    uint64_t fence_bytes = 0;
    uint64_t groups_committed = 0;
    uint64_t group_writers = 0;
    uint64_t wal_appends_saved = 0;
    uint64_t group_size_hist[StatsCounters::kGroupSizeBuckets] = {};
    uint64_t write_slowdowns = 0;
    uint64_t write_stalls = 0;
    uint64_t busy_rejections = 0;
    uint64_t scrub_passes = 0;
    uint64_t scrub_bytes = 0;
    uint64_t corruptions_detected = 0;
    uint64_t tables_quarantined = 0;
    uint64_t ssd_io_retries = 0;
    uint64_t wal_corrupt_frames = 0;
    uint64_t snapshots_live = 0;
    uint64_t snapshots_pinned_manifests = 0;
    uint64_t vlog_appends = 0;
    uint64_t vlog_appended_bytes = 0;
    uint64_t vlog_deref_reads = 0;
    uint64_t vlog_gc_passes = 0;
    uint64_t vlog_gc_relocated_bytes = 0;
    uint64_t vlog_gc_reclaimed_bytes = 0;
    uint64_t vlog_segments_created = 0;
    uint64_t vlog_segments_unlinked = 0;
    uint64_t vlog_segments_live = 0;
    uint64_t wal_frames_replayed = 0;
    uint64_t wal_frames_on_demand = 0;
    uint64_t recovery_ms_to_ready = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
    uint64_t cache_invalidations = 0;
    uint64_t tuner_moves = 0;
    uint64_t gov_memtable_bytes = 0;
    uint64_t gov_cache_bytes = 0;
    uint64_t gov_nvm_buffer_bytes = 0;
    uint64_t gov_vlog_bytes = 0;
    uint64_t gov_memtable_limit = 0;
    uint64_t gov_cache_limit = 0;
    uint64_t sched_submitted[StatsCounters::kJobClasses] = {};
    uint64_t sched_completed[StatsCounters::kJobClasses] = {};
    uint64_t sched_dropped[StatsCounters::kJobClasses] = {};
    uint64_t sched_queue_ns[StatsCounters::kJobClasses] = {};
    uint64_t sched_run_ns[StatsCounters::kJobClasses] = {};
    uint64_t sched_queue_hist[StatsCounters::kJobClasses]
                             [StatsCounters::kSchedLatBuckets] = {};
    uint64_t sched_run_hist[StatsCounters::kJobClasses]
                           [StatsCounters::kSchedLatBuckets] = {};
    uint64_t sched_escalations = 0;

    /** Mean writers per commit group (1.0 when grouping never fired). */
    double
    averageGroupSize() const
    {
        if (groups_committed == 0)
            return 0.0;
        return static_cast<double>(group_writers) /
               static_cast<double>(groups_committed);
    }

    /**
     * Write amplification as the paper defines it: all persistent
     * traffic (WAL + flush + compaction) over user-written bytes --
     * this is what makes MioDB's theoretical bound exactly 3
     * (WAL + one-piece flush + lazy copy, paper Sec. 5.3).
     */
    double
    writeAmplification() const
    {
        if (user_bytes_written == 0)
            return 0.0;
        return static_cast<double>(storage_bytes_written +
                                   wal_bytes_written) /
               static_cast<double>(user_bytes_written);
    }

    std::string toString() const;
};

StatsSnapshot snapshotOf(const StatsCounters &c);

/** a - b, fieldwise; for measuring a phase. */
StatsSnapshot statsDelta(const StatsSnapshot &a, const StatsSnapshot &b);

/** acc + b, fieldwise; for aggregating across shards. */
void statsAdd(StatsSnapshot *acc, const StatsSnapshot &b);

/** Store @p s into @p out, fieldwise (relaxed); the inverse of
 *  snapshotOf, used to publish an aggregated snapshot through the
 *  KVStore::stats() counter interface. */
void loadInto(const StatsSnapshot &s, StatsCounters *out);

} // namespace mio

#endif // MIO_KV_STORE_STATS_H_
