/**
 * @file
 * Shared statistics counters every store implementation feeds; the
 * bench harness reads snapshots to reproduce the paper's cost
 * breakdowns (Table 1) and WA figures (Fig. 11).
 *
 * Every counter is defined once, in MIO_STATS_COUNTERS below; the
 * live atomics, the plain snapshot and the fieldwise operations
 * (snapshotOf, statsDelta, statsAdd, loadInto) are all generated
 * from that table.
 */
#ifndef MIO_KV_STORE_STATS_H_
#define MIO_KV_STORE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace mio {

/** How a counter combines across phases (statsDelta) and shards
 *  (statsAdd). */
enum class StatKind {
    /** Monotone count: a phase delta subtracts, shards sum. */
    kCounter,
    /** Point-in-time reading: a delta carries the later reading,
     *  shards sum. */
    kGauge,
    /** Open-relative timestamp: a delta carries the later reading,
     *  shards take the max. */
    kMax,
};

/**
 * The counter table, in field order: X(name, kind, shape) per counter,
 * where kind is a StatKind enumerator and shape one of the
 * StatsCounters shape templates (Scalar, PerGroupSize, PerJobClass,
 * PerJobClassLatency). Adding a counter is one entry here; keep hot
 * counters where they are, since the order fixes each atomic's cache
 * line.
 */
#define MIO_STATS_COUNTERS(X)                                                 \
    /* -- stall accounting (paper Sec. 3.1 definitions) -- */                 \
    /** Writer fully blocked (immutable not yet flushed / L0 stop). */        \
    X(interval_stall_ns, kCounter, Scalar)                                    \
    /** Deliberate per-write slowdowns near trigger thresholds. */            \
    X(cumulative_stall_ns, kCounter, Scalar)                                  \
    /* -- flush path -- */                                                    \
    /** Time spent flushing MemTables. */                                     \
    X(flush_ns, kCounter, Scalar)                                             \
    /** MemTables flushed. */                                                 \
    X(flush_count, kCounter, Scalar)                                          \
    /** Bytes those flushes moved out of DRAM. */                             \
    X(flushed_bytes, kCounter, Scalar)                                        \
    /** Time spent serializing MemTable entries to table format. */           \
    X(serialization_ns, kCounter, Scalar)                                     \
    /** Time spent reading+decoding serialized blocks on the read path. */    \
    X(deserialization_ns, kCounter, Scalar)                                   \
    /* -- traffic -- */                                                       \
    /** User-written bytes (the WA denominator). */                           \
    X(user_bytes_written, kCounter, Scalar)                                   \
    /** Bytes appended to the write-ahead log. */                             \
    X(wal_bytes_written, kCounter, Scalar)                                    \
    /** Bytes written to storage by flushes + compactions. */                 \
    X(storage_bytes_written, kCounter, Scalar)                                \
    /* -- compaction -- */                                                    \
    /** Compactions / merges completed. */                                    \
    X(compaction_count, kCounter, Scalar)                                     \
    /** Time spent in them. */                                                \
    X(compaction_ns, kCounter, Scalar)                                        \
    /** Zero-copy (pointer relink) merges within the NVM buffer. */           \
    X(zero_copy_merges, kCounter, Scalar)                                     \
    /** Lazy-copy merges into the repository. */                              \
    X(lazy_copy_merges, kCounter, Scalar)                                     \
    /* -- ops -- */                                                           \
    /** Put calls. */                                                         \
    X(puts, kCounter, Scalar)                                                 \
    /** Get calls. */                                                         \
    X(gets, kCounter, Scalar)                                                 \
    /** Delete calls. */                                                      \
    X(deletes, kCounter, Scalar)                                              \
    /** Scan calls. */                                                        \
    X(scans, kCounter, Scalar)                                                \
    /** Table probes skipped by a per-table bloom filter. */                  \
    X(bloom_filter_skips, kCounter, Scalar)                                   \
    /** Whole buffer levels skipped by the per-level bloom summary. */        \
    X(bloom_summary_skips, kCounter, Scalar)                                  \
    /** Per-level lookup retries after a concurrent manifest publish. */      \
    X(read_retries, kCounter, Scalar)                                         \
    /** Table probes answered by a DRAM fence walk (no descent). */           \
    X(fence_probes, kCounter, Scalar)                                         \
    /** NVM nodes those fence walks dereferenced. */                          \
    X(fence_walk_nodes, kCounter, Scalar)                                     \
    /** DRAM bytes held by published fence indexes. */                        \
    X(fence_bytes, kGauge, Scalar)                                            \
    /* -- group commit (write pipeline) -- */                                 \
    /** Commit groups published by a leader writer. */                        \
    X(groups_committed, kCounter, Scalar)                                     \
    /** Writer records committed through groups (>= groups_committed). */     \
    X(group_writers, kCounter, Scalar)                                        \
    /** WAL record appends avoided by combining writers into groups. */       \
    X(wal_appends_saved, kCounter, Scalar)                                    \
    /** Groups per size bucket (groupSizeBucket). */                          \
    X(group_size_hist, kCounter, PerGroupSize)                                \
    /* -- media-fault tolerance (NVM watermarks, scrubber, retries) -- */     \
    /** Writes slowed down above the soft NVM watermark. */                   \
    X(write_slowdowns, kCounter, Scalar)                                      \
    /** Writers that entered a bounded hard-watermark stall. */               \
    X(write_stalls, kCounter, Scalar)                                         \
    /** Writes rejected with Status::busy after a stall timed out. */         \
    X(busy_rejections, kCounter, Scalar)                                      \
    /** Scrubber passes completed. */                                         \
    X(scrub_passes, kCounter, Scalar)                                         \
    /** Payload bytes whose checksums the scrubber verified. */               \
    X(scrub_bytes, kCounter, Scalar)                                          \
    /** Checksum mismatches found (scrubber or read-path verify). */          \
    X(corruptions_detected, kCounter, Scalar)                                 \
    /** PMTables/SSTables quarantined after a checksum mismatch. */           \
    X(tables_quarantined, kCounter, Scalar)                                   \
    /** Transient SSD I/O errors absorbed by retry-with-backoff. */           \
    X(ssd_io_retries, kCounter, Scalar)                                       \
    /** WAL frames dropped by recovery as corrupt (torn/flipped). */          \
    X(wal_corrupt_frames, kCounter, Scalar)                                   \
    /* -- snapshots (incremented at pin, decremented at release; nonzero */   \
    /*    at close means a leaked pin) -- */                                  \
    /** Snapshots currently held by callers. */                               \
    X(snapshots_live, kGauge, Scalar)                                         \
    /** Level manifests (and table sets) pinned by live snapshots. */         \
    X(snapshots_pinned_manifests, kGauge, Scalar)                             \
    /* -- value log (key-value separation) -- */                              \
    /** Values separated into the NVM value log at write time. */             \
    X(vlog_appends, kCounter, Scalar)                                         \
    /** Payload bytes appended to the value log (user + GC traffic). */       \
    X(vlog_appended_bytes, kCounter, Scalar)                                  \
    /** Pointer dereferences served by the value log on reads/scans. */       \
    X(vlog_deref_reads, kCounter, Scalar)                                     \
    /** GC passes that examined at least one victim segment. */               \
    X(vlog_gc_passes, kCounter, Scalar)                                       \
    /** Live bytes GC re-appended to the head segment. */                     \
    X(vlog_gc_relocated_bytes, kCounter, Scalar)                              \
    /** Segment capacity returned to the device by GC unlinks. */             \
    X(vlog_gc_reclaimed_bytes, kCounter, Scalar)                              \
    /** Value-log segments allocated. */                                      \
    X(vlog_segments_created, kCounter, Scalar)                                \
    /** Value-log segments GC unlinked. */                                    \
    X(vlog_segments_unlinked, kCounter, Scalar)                               \
    /** Segments currently holding data. */                                   \
    X(vlog_segments_live, kGauge, Scalar)                                     \
    /* -- recovery (WAL replay at open) -- */                                 \
    /** WAL records applied by the open-time replay. */                       \
    X(wal_frames_replayed, kCounter, Scalar)                                  \
    /** Always 0: no record is replayed on demand after open. */              \
    X(wal_frames_on_demand, kCounter, Scalar)                                 \
    /** open() -> store serving (includes the replay); a machine is ready */  \
    /*  when its last shard is, so shards aggregate by max. */                \
    X(recovery_ms_to_ready, kMax, Scalar)                                     \
    /* -- memory governor -- */                                               \
    /** Always 0: the store has no read cache (miobench still reads */        \
    /*  the pair). */                                                         \
    X(cache_hits, kCounter, Scalar)                                           \
    /** Always 0, like cache_hits. */                                         \
    X(cache_misses, kCounter, Scalar)                                         \
    /* Governor gauges (point-in-time bytes). Each governor publishes */      \
    /* into exactly one sink, so summing shards never counts a budget */      \
    /* twice. */                                                              \
    /** DRAM charged to MemTables. */                                         \
    X(gov_memtable_bytes, kGauge, Scalar)                                     \
    /** NVM charged to the elastic buffer. */                                 \
    X(gov_nvm_buffer_bytes, kGauge, Scalar)                                   \
    /** NVM charged to the value log. */                                      \
    X(gov_vlog_bytes, kGauge, Scalar)                                         \
    /** MemTable DRAM budget. */                                              \
    X(gov_memtable_limit, kGauge, Scalar)                                     \
    /* -- background scheduler (per-job-class observability) -- */            \
    /** Jobs queued per class. */                                             \
    X(sched_submitted, kCounter, PerJobClass)                                 \
    /** Jobs run to completion per class. */                                  \
    X(sched_completed, kCounter, PerJobClass)                                 \
    /** Jobs discarded unexecuted (freeze/shutdown). */                       \
    X(sched_dropped, kCounter, PerJobClass)                                   \
    /** Total submit->dispatch wait per class. */                             \
    X(sched_queue_ns, kCounter, PerJobClass)                                  \
    /** Total execution time per class. */                                    \
    X(sched_run_ns, kCounter, PerJobClass)                                    \
    /** Submit->dispatch waits per class and schedLatBucket. */               \
    X(sched_queue_hist, kCounter, PerJobClassLatency)                         \
    /** Run times per class and schedLatBucket. */                            \
    X(sched_run_hist, kCounter, PerJobClassLatency)                           \
    /** Dispatches where an urgency probe overrode base priority. */          \
    X(sched_escalations, kCounter, Scalar)

/**
 * Live atomic counters. Components hold a pointer to their store's
 * instance and bump the fields they are responsible for.
 */
struct StatsCounters {
    /** Log2-ish buckets of writers-per-group: 1, 2, 3-4, 5-8, ... */
    static constexpr int kGroupSizeBuckets = 8;
    /** Background job classes, indexed by sched::JobClass. */
    static constexpr int kJobClasses = 8;
    /** Short stable name per job class (sched::jobClassName). */
    static constexpr const char *kJobClassNames[kJobClasses] = {
        "flush", "lcm", "zcm", "ssd", "walrec", "scrub", "vloggc", "walrep"};
    /** Decade latency buckets: <1us, <10us, ..., <1s, >=1s. */
    static constexpr int kSchedLatBuckets = 8;

    // Counter shapes the table names.
    template <typename T> using Scalar = T;
    template <typename T> using PerGroupSize = T[kGroupSizeBuckets];
    template <typename T> using PerJobClass = T[kJobClasses];
    template <typename T>
    using PerJobClassLatency = T[kJobClasses][kSchedLatBuckets];

#define MIO_STATS_ATOMIC(name, kind, shape)                                   \
    shape<std::atomic<uint64_t>> name{};
    MIO_STATS_COUNTERS(MIO_STATS_ATOMIC)
#undef MIO_STATS_ATOMIC

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

/** Plain-value snapshot of StatsCounters: the same fields, in the same
 *  order, as uint64_t. */
struct StatsSnapshot {
#define MIO_STATS_FIELD(name, kind, shape)                                    \
    StatsCounters::shape<uint64_t> name{};
    MIO_STATS_COUNTERS(MIO_STATS_FIELD)
#undef MIO_STATS_FIELD

    /** Mean writers per commit group (0 when grouping never fired). */
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

/** a - b per kCounter field; gauges and kMax fields carry a's reading.
 *  For measuring a phase. */
StatsSnapshot statsDelta(const StatsSnapshot &a, const StatsSnapshot &b);

/** acc + b per field, except kMax fields take the max; for
 *  aggregating across shards. */
void statsAdd(StatsSnapshot *acc, const StatsSnapshot &b);

/** Store @p s into @p out, fieldwise (relaxed); the inverse of
 *  snapshotOf, used to publish an aggregated snapshot through the
 *  KVStore::stats() counter interface. */
void loadInto(const StatsSnapshot &s, StatsCounters *out);

} // namespace mio

#endif // MIO_KV_STORE_STATS_H_
