#include "kv/store_stats.h"

#include <algorithm>
#include <cstdio>

namespace mio {

StatsSnapshot
snapshotOf(const StatsCounters &c)
{
    StatsSnapshot s;
    auto get = [](const std::atomic<uint64_t> &a) {
        return a.load(std::memory_order_relaxed);
    };
    s.interval_stall_ns = get(c.interval_stall_ns);
    s.cumulative_stall_ns = get(c.cumulative_stall_ns);
    s.flush_ns = get(c.flush_ns);
    s.flush_count = get(c.flush_count);
    s.flushed_bytes = get(c.flushed_bytes);
    s.serialization_ns = get(c.serialization_ns);
    s.deserialization_ns = get(c.deserialization_ns);
    s.user_bytes_written = get(c.user_bytes_written);
    s.wal_bytes_written = get(c.wal_bytes_written);
    s.storage_bytes_written = get(c.storage_bytes_written);
    s.compaction_count = get(c.compaction_count);
    s.compaction_ns = get(c.compaction_ns);
    s.zero_copy_merges = get(c.zero_copy_merges);
    s.lazy_copy_merges = get(c.lazy_copy_merges);
    s.puts = get(c.puts);
    s.gets = get(c.gets);
    s.deletes = get(c.deletes);
    s.scans = get(c.scans);
    s.bloom_filter_skips = get(c.bloom_filter_skips);
    s.bloom_summary_skips = get(c.bloom_summary_skips);
    s.read_retries = get(c.read_retries);
    s.fence_probes = get(c.fence_probes);
    s.fence_walk_nodes = get(c.fence_walk_nodes);
    s.fence_bytes = get(c.fence_bytes);
    s.groups_committed = get(c.groups_committed);
    s.group_writers = get(c.group_writers);
    s.wal_appends_saved = get(c.wal_appends_saved);
    for (int i = 0; i < StatsCounters::kGroupSizeBuckets; i++)
        s.group_size_hist[i] = get(c.group_size_hist[i]);
    s.write_slowdowns = get(c.write_slowdowns);
    s.write_stalls = get(c.write_stalls);
    s.busy_rejections = get(c.busy_rejections);
    s.scrub_passes = get(c.scrub_passes);
    s.scrub_bytes = get(c.scrub_bytes);
    s.corruptions_detected = get(c.corruptions_detected);
    s.tables_quarantined = get(c.tables_quarantined);
    s.ssd_io_retries = get(c.ssd_io_retries);
    s.wal_corrupt_frames = get(c.wal_corrupt_frames);
    s.snapshots_live = get(c.snapshots_live);
    s.snapshots_pinned_manifests = get(c.snapshots_pinned_manifests);
    s.vlog_appends = get(c.vlog_appends);
    s.vlog_appended_bytes = get(c.vlog_appended_bytes);
    s.vlog_deref_reads = get(c.vlog_deref_reads);
    s.vlog_gc_passes = get(c.vlog_gc_passes);
    s.vlog_gc_relocated_bytes = get(c.vlog_gc_relocated_bytes);
    s.vlog_gc_reclaimed_bytes = get(c.vlog_gc_reclaimed_bytes);
    s.vlog_segments_created = get(c.vlog_segments_created);
    s.vlog_segments_unlinked = get(c.vlog_segments_unlinked);
    s.vlog_segments_live = get(c.vlog_segments_live);
    s.wal_frames_replayed = get(c.wal_frames_replayed);
    s.wal_frames_on_demand = get(c.wal_frames_on_demand);
    s.recovery_ms_to_ready = get(c.recovery_ms_to_ready);
    s.cache_hits = get(c.cache_hits);
    s.cache_misses = get(c.cache_misses);
    s.cache_evictions = get(c.cache_evictions);
    s.cache_invalidations = get(c.cache_invalidations);
    s.tuner_moves = get(c.tuner_moves);
    s.gov_memtable_bytes = get(c.gov_memtable_bytes);
    s.gov_cache_bytes = get(c.gov_cache_bytes);
    s.gov_nvm_buffer_bytes = get(c.gov_nvm_buffer_bytes);
    s.gov_vlog_bytes = get(c.gov_vlog_bytes);
    s.gov_memtable_limit = get(c.gov_memtable_limit);
    s.gov_cache_limit = get(c.gov_cache_limit);
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        s.sched_submitted[j] = get(c.sched_submitted[j]);
        s.sched_completed[j] = get(c.sched_completed[j]);
        s.sched_dropped[j] = get(c.sched_dropped[j]);
        s.sched_queue_ns[j] = get(c.sched_queue_ns[j]);
        s.sched_run_ns[j] = get(c.sched_run_ns[j]);
        for (int b = 0; b < StatsCounters::kSchedLatBuckets; b++) {
            s.sched_queue_hist[j][b] = get(c.sched_queue_hist[j][b]);
            s.sched_run_hist[j][b] = get(c.sched_run_hist[j][b]);
        }
    }
    s.sched_escalations = get(c.sched_escalations);
    return s;
}

StatsSnapshot
statsDelta(const StatsSnapshot &a, const StatsSnapshot &b)
{
    StatsSnapshot d;
    d.interval_stall_ns = a.interval_stall_ns - b.interval_stall_ns;
    d.cumulative_stall_ns = a.cumulative_stall_ns - b.cumulative_stall_ns;
    d.flush_ns = a.flush_ns - b.flush_ns;
    d.flush_count = a.flush_count - b.flush_count;
    d.flushed_bytes = a.flushed_bytes - b.flushed_bytes;
    d.serialization_ns = a.serialization_ns - b.serialization_ns;
    d.deserialization_ns = a.deserialization_ns - b.deserialization_ns;
    d.user_bytes_written = a.user_bytes_written - b.user_bytes_written;
    d.wal_bytes_written = a.wal_bytes_written - b.wal_bytes_written;
    d.storage_bytes_written =
        a.storage_bytes_written - b.storage_bytes_written;
    d.compaction_count = a.compaction_count - b.compaction_count;
    d.compaction_ns = a.compaction_ns - b.compaction_ns;
    d.zero_copy_merges = a.zero_copy_merges - b.zero_copy_merges;
    d.lazy_copy_merges = a.lazy_copy_merges - b.lazy_copy_merges;
    d.puts = a.puts - b.puts;
    d.gets = a.gets - b.gets;
    d.deletes = a.deletes - b.deletes;
    d.scans = a.scans - b.scans;
    d.bloom_filter_skips = a.bloom_filter_skips - b.bloom_filter_skips;
    d.bloom_summary_skips =
        a.bloom_summary_skips - b.bloom_summary_skips;
    d.read_retries = a.read_retries - b.read_retries;
    d.fence_probes = a.fence_probes - b.fence_probes;
    d.fence_walk_nodes = a.fence_walk_nodes - b.fence_walk_nodes;
    d.fence_bytes = a.fence_bytes;  // gauge
    d.groups_committed = a.groups_committed - b.groups_committed;
    d.group_writers = a.group_writers - b.group_writers;
    d.wal_appends_saved = a.wal_appends_saved - b.wal_appends_saved;
    for (int i = 0; i < StatsCounters::kGroupSizeBuckets; i++)
        d.group_size_hist[i] = a.group_size_hist[i] - b.group_size_hist[i];
    d.write_slowdowns = a.write_slowdowns - b.write_slowdowns;
    d.write_stalls = a.write_stalls - b.write_stalls;
    d.busy_rejections = a.busy_rejections - b.busy_rejections;
    d.scrub_passes = a.scrub_passes - b.scrub_passes;
    d.scrub_bytes = a.scrub_bytes - b.scrub_bytes;
    d.corruptions_detected =
        a.corruptions_detected - b.corruptions_detected;
    d.tables_quarantined = a.tables_quarantined - b.tables_quarantined;
    d.ssd_io_retries = a.ssd_io_retries - b.ssd_io_retries;
    d.wal_corrupt_frames = a.wal_corrupt_frames - b.wal_corrupt_frames;
    // Gauges (point-in-time values): carry the current reading rather
    // than a meaningless difference.
    d.snapshots_live = a.snapshots_live;
    d.snapshots_pinned_manifests = a.snapshots_pinned_manifests;
    d.vlog_appends = a.vlog_appends - b.vlog_appends;
    d.vlog_appended_bytes = a.vlog_appended_bytes - b.vlog_appended_bytes;
    d.vlog_deref_reads = a.vlog_deref_reads - b.vlog_deref_reads;
    d.vlog_gc_passes = a.vlog_gc_passes - b.vlog_gc_passes;
    d.vlog_gc_relocated_bytes =
        a.vlog_gc_relocated_bytes - b.vlog_gc_relocated_bytes;
    d.vlog_gc_reclaimed_bytes =
        a.vlog_gc_reclaimed_bytes - b.vlog_gc_reclaimed_bytes;
    d.vlog_segments_created =
        a.vlog_segments_created - b.vlog_segments_created;
    d.vlog_segments_unlinked =
        a.vlog_segments_unlinked - b.vlog_segments_unlinked;
    d.vlog_segments_live = a.vlog_segments_live;  // gauge
    d.wal_frames_replayed = a.wal_frames_replayed - b.wal_frames_replayed;
    d.wal_frames_on_demand =
        a.wal_frames_on_demand - b.wal_frames_on_demand;
    // An open-relative timestamp, not a phase counter: carry it.
    d.recovery_ms_to_ready = a.recovery_ms_to_ready;
    d.cache_hits = a.cache_hits - b.cache_hits;
    d.cache_misses = a.cache_misses - b.cache_misses;
    d.cache_evictions = a.cache_evictions - b.cache_evictions;
    d.cache_invalidations =
        a.cache_invalidations - b.cache_invalidations;
    d.tuner_moves = a.tuner_moves - b.tuner_moves;
    // Governor gauges: carry the current reading.
    d.gov_memtable_bytes = a.gov_memtable_bytes;
    d.gov_cache_bytes = a.gov_cache_bytes;
    d.gov_nvm_buffer_bytes = a.gov_nvm_buffer_bytes;
    d.gov_vlog_bytes = a.gov_vlog_bytes;
    d.gov_memtable_limit = a.gov_memtable_limit;
    d.gov_cache_limit = a.gov_cache_limit;
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        d.sched_submitted[j] = a.sched_submitted[j] - b.sched_submitted[j];
        d.sched_completed[j] = a.sched_completed[j] - b.sched_completed[j];
        d.sched_dropped[j] = a.sched_dropped[j] - b.sched_dropped[j];
        d.sched_queue_ns[j] = a.sched_queue_ns[j] - b.sched_queue_ns[j];
        d.sched_run_ns[j] = a.sched_run_ns[j] - b.sched_run_ns[j];
        for (int k = 0; k < StatsCounters::kSchedLatBuckets; k++) {
            d.sched_queue_hist[j][k] =
                a.sched_queue_hist[j][k] - b.sched_queue_hist[j][k];
            d.sched_run_hist[j][k] =
                a.sched_run_hist[j][k] - b.sched_run_hist[j][k];
        }
    }
    d.sched_escalations = a.sched_escalations - b.sched_escalations;
    return d;
}

void
statsAdd(StatsSnapshot *acc, const StatsSnapshot &b)
{
    acc->interval_stall_ns += b.interval_stall_ns;
    acc->cumulative_stall_ns += b.cumulative_stall_ns;
    acc->flush_ns += b.flush_ns;
    acc->flush_count += b.flush_count;
    acc->flushed_bytes += b.flushed_bytes;
    acc->serialization_ns += b.serialization_ns;
    acc->deserialization_ns += b.deserialization_ns;
    acc->user_bytes_written += b.user_bytes_written;
    acc->wal_bytes_written += b.wal_bytes_written;
    acc->storage_bytes_written += b.storage_bytes_written;
    acc->compaction_count += b.compaction_count;
    acc->compaction_ns += b.compaction_ns;
    acc->zero_copy_merges += b.zero_copy_merges;
    acc->lazy_copy_merges += b.lazy_copy_merges;
    acc->puts += b.puts;
    acc->gets += b.gets;
    acc->deletes += b.deletes;
    acc->scans += b.scans;
    acc->bloom_filter_skips += b.bloom_filter_skips;
    acc->bloom_summary_skips += b.bloom_summary_skips;
    acc->read_retries += b.read_retries;
    acc->fence_probes += b.fence_probes;
    acc->fence_walk_nodes += b.fence_walk_nodes;
    acc->fence_bytes += b.fence_bytes;
    acc->groups_committed += b.groups_committed;
    acc->group_writers += b.group_writers;
    acc->wal_appends_saved += b.wal_appends_saved;
    for (int i = 0; i < StatsCounters::kGroupSizeBuckets; i++)
        acc->group_size_hist[i] += b.group_size_hist[i];
    acc->write_slowdowns += b.write_slowdowns;
    acc->write_stalls += b.write_stalls;
    acc->busy_rejections += b.busy_rejections;
    acc->scrub_passes += b.scrub_passes;
    acc->scrub_bytes += b.scrub_bytes;
    acc->corruptions_detected += b.corruptions_detected;
    acc->tables_quarantined += b.tables_quarantined;
    acc->ssd_io_retries += b.ssd_io_retries;
    acc->wal_corrupt_frames += b.wal_corrupt_frames;
    acc->snapshots_live += b.snapshots_live;
    acc->snapshots_pinned_manifests += b.snapshots_pinned_manifests;
    acc->vlog_appends += b.vlog_appends;
    acc->vlog_appended_bytes += b.vlog_appended_bytes;
    acc->vlog_deref_reads += b.vlog_deref_reads;
    acc->vlog_gc_passes += b.vlog_gc_passes;
    acc->vlog_gc_relocated_bytes += b.vlog_gc_relocated_bytes;
    acc->vlog_gc_reclaimed_bytes += b.vlog_gc_reclaimed_bytes;
    acc->vlog_segments_created += b.vlog_segments_created;
    acc->vlog_segments_unlinked += b.vlog_segments_unlinked;
    acc->vlog_segments_live += b.vlog_segments_live;
    acc->wal_frames_replayed += b.wal_frames_replayed;
    acc->wal_frames_on_demand += b.wal_frames_on_demand;
    // A machine is ready when its LAST shard is: aggregate the
    // per-shard timestamps with max, not sum.
    acc->recovery_ms_to_ready =
        std::max(acc->recovery_ms_to_ready, b.recovery_ms_to_ready);
    acc->cache_hits += b.cache_hits;
    acc->cache_misses += b.cache_misses;
    acc->cache_evictions += b.cache_evictions;
    acc->cache_invalidations += b.cache_invalidations;
    acc->tuner_moves += b.tuner_moves;
    // Governor gauges live in exactly one sink per governor (the
    // facade's counters for a shared governor, the store's own
    // otherwise), so summing never multiply-counts a budget.
    acc->gov_memtable_bytes += b.gov_memtable_bytes;
    acc->gov_cache_bytes += b.gov_cache_bytes;
    acc->gov_nvm_buffer_bytes += b.gov_nvm_buffer_bytes;
    acc->gov_vlog_bytes += b.gov_vlog_bytes;
    acc->gov_memtable_limit += b.gov_memtable_limit;
    acc->gov_cache_limit += b.gov_cache_limit;
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        acc->sched_submitted[j] += b.sched_submitted[j];
        acc->sched_completed[j] += b.sched_completed[j];
        acc->sched_dropped[j] += b.sched_dropped[j];
        acc->sched_queue_ns[j] += b.sched_queue_ns[j];
        acc->sched_run_ns[j] += b.sched_run_ns[j];
        for (int k = 0; k < StatsCounters::kSchedLatBuckets; k++) {
            acc->sched_queue_hist[j][k] += b.sched_queue_hist[j][k];
            acc->sched_run_hist[j][k] += b.sched_run_hist[j][k];
        }
    }
    acc->sched_escalations += b.sched_escalations;
}

void
loadInto(const StatsSnapshot &s, StatsCounters *out)
{
    auto set = [](std::atomic<uint64_t> &a, uint64_t v) {
        a.store(v, std::memory_order_relaxed);
    };
    set(out->interval_stall_ns, s.interval_stall_ns);
    set(out->cumulative_stall_ns, s.cumulative_stall_ns);
    set(out->flush_ns, s.flush_ns);
    set(out->flush_count, s.flush_count);
    set(out->flushed_bytes, s.flushed_bytes);
    set(out->serialization_ns, s.serialization_ns);
    set(out->deserialization_ns, s.deserialization_ns);
    set(out->user_bytes_written, s.user_bytes_written);
    set(out->wal_bytes_written, s.wal_bytes_written);
    set(out->storage_bytes_written, s.storage_bytes_written);
    set(out->compaction_count, s.compaction_count);
    set(out->compaction_ns, s.compaction_ns);
    set(out->zero_copy_merges, s.zero_copy_merges);
    set(out->lazy_copy_merges, s.lazy_copy_merges);
    set(out->puts, s.puts);
    set(out->gets, s.gets);
    set(out->deletes, s.deletes);
    set(out->scans, s.scans);
    set(out->bloom_filter_skips, s.bloom_filter_skips);
    set(out->bloom_summary_skips, s.bloom_summary_skips);
    set(out->read_retries, s.read_retries);
    set(out->fence_probes, s.fence_probes);
    set(out->fence_walk_nodes, s.fence_walk_nodes);
    set(out->fence_bytes, s.fence_bytes);
    set(out->groups_committed, s.groups_committed);
    set(out->group_writers, s.group_writers);
    set(out->wal_appends_saved, s.wal_appends_saved);
    for (int i = 0; i < StatsCounters::kGroupSizeBuckets; i++)
        set(out->group_size_hist[i], s.group_size_hist[i]);
    set(out->write_slowdowns, s.write_slowdowns);
    set(out->write_stalls, s.write_stalls);
    set(out->busy_rejections, s.busy_rejections);
    set(out->scrub_passes, s.scrub_passes);
    set(out->scrub_bytes, s.scrub_bytes);
    set(out->corruptions_detected, s.corruptions_detected);
    set(out->tables_quarantined, s.tables_quarantined);
    set(out->ssd_io_retries, s.ssd_io_retries);
    set(out->wal_corrupt_frames, s.wal_corrupt_frames);
    set(out->snapshots_live, s.snapshots_live);
    set(out->snapshots_pinned_manifests, s.snapshots_pinned_manifests);
    set(out->vlog_appends, s.vlog_appends);
    set(out->vlog_appended_bytes, s.vlog_appended_bytes);
    set(out->vlog_deref_reads, s.vlog_deref_reads);
    set(out->vlog_gc_passes, s.vlog_gc_passes);
    set(out->vlog_gc_relocated_bytes, s.vlog_gc_relocated_bytes);
    set(out->vlog_gc_reclaimed_bytes, s.vlog_gc_reclaimed_bytes);
    set(out->vlog_segments_created, s.vlog_segments_created);
    set(out->vlog_segments_unlinked, s.vlog_segments_unlinked);
    set(out->vlog_segments_live, s.vlog_segments_live);
    set(out->wal_frames_replayed, s.wal_frames_replayed);
    set(out->wal_frames_on_demand, s.wal_frames_on_demand);
    set(out->recovery_ms_to_ready, s.recovery_ms_to_ready);
    set(out->cache_hits, s.cache_hits);
    set(out->cache_misses, s.cache_misses);
    set(out->cache_evictions, s.cache_evictions);
    set(out->cache_invalidations, s.cache_invalidations);
    set(out->tuner_moves, s.tuner_moves);
    set(out->gov_memtable_bytes, s.gov_memtable_bytes);
    set(out->gov_cache_bytes, s.gov_cache_bytes);
    set(out->gov_nvm_buffer_bytes, s.gov_nvm_buffer_bytes);
    set(out->gov_vlog_bytes, s.gov_vlog_bytes);
    set(out->gov_memtable_limit, s.gov_memtable_limit);
    set(out->gov_cache_limit, s.gov_cache_limit);
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        set(out->sched_submitted[j], s.sched_submitted[j]);
        set(out->sched_completed[j], s.sched_completed[j]);
        set(out->sched_dropped[j], s.sched_dropped[j]);
        set(out->sched_queue_ns[j], s.sched_queue_ns[j]);
        set(out->sched_run_ns[j], s.sched_run_ns[j]);
        for (int k = 0; k < StatsCounters::kSchedLatBuckets; k++) {
            set(out->sched_queue_hist[j][k], s.sched_queue_hist[j][k]);
            set(out->sched_run_hist[j][k], s.sched_run_hist[j][k]);
        }
    }
    set(out->sched_escalations, s.sched_escalations);
}

std::string
StatsSnapshot::toString() const
{
    char buf[512];
    snprintf(buf, sizeof(buf),
             "interval_stall=%.3fs cumulative_stall=%.3fs flush=%.3fs "
             "(%llu tables) ser=%.3fs deser=%.3fs WA=%.2fx "
             "compactions=%llu (zero-copy=%llu lazy=%llu) "
             "groups=%llu avg_group=%.2f wal_saved=%llu",
             interval_stall_ns / 1e9, cumulative_stall_ns / 1e9,
             flush_ns / 1e9, static_cast<unsigned long long>(flush_count),
             serialization_ns / 1e9, deserialization_ns / 1e9,
             writeAmplification(),
             static_cast<unsigned long long>(compaction_count),
             static_cast<unsigned long long>(zero_copy_merges),
             static_cast<unsigned long long>(lazy_copy_merges),
             static_cast<unsigned long long>(groups_committed),
             averageGroupSize(),
             static_cast<unsigned long long>(wal_appends_saved));
    std::string out(buf);
    snprintf(buf, sizeof(buf),
             "\nfaults: slowdowns=%llu stalls=%llu busy=%llu "
             "scrubs=%llu scrub_bytes=%llu corruptions=%llu "
             "quarantined=%llu ssd_retries=%llu wal_corrupt=%llu",
             static_cast<unsigned long long>(write_slowdowns),
             static_cast<unsigned long long>(write_stalls),
             static_cast<unsigned long long>(busy_rejections),
             static_cast<unsigned long long>(scrub_passes),
             static_cast<unsigned long long>(scrub_bytes),
             static_cast<unsigned long long>(corruptions_detected),
             static_cast<unsigned long long>(tables_quarantined),
             static_cast<unsigned long long>(ssd_io_retries),
             static_cast<unsigned long long>(wal_corrupt_frames));
    out += buf;
    if (fence_probes > 0 || fence_bytes > 0) {
        snprintf(buf, sizeof(buf),
                 "\nfence: probes=%llu walk_nodes=%llu (%.2f/probe) "
                 "bytes=%llu",
                 static_cast<unsigned long long>(fence_probes),
                 static_cast<unsigned long long>(fence_walk_nodes),
                 fence_probes > 0
                     ? static_cast<double>(fence_walk_nodes) /
                           static_cast<double>(fence_probes)
                     : 0.0,
                 static_cast<unsigned long long>(fence_bytes));
        out += buf;
    }
    if (snapshots_live > 0 || snapshots_pinned_manifests > 0) {
        snprintf(buf, sizeof(buf),
                 "\nsnapshots: live=%llu pinned_manifests=%llu",
                 static_cast<unsigned long long>(snapshots_live),
                 static_cast<unsigned long long>(
                     snapshots_pinned_manifests));
        out += buf;
    }
    if (vlog_appends > 0 || vlog_segments_live > 0) {
        snprintf(buf, sizeof(buf),
                 "\nvlog: appends=%llu appended_bytes=%llu derefs=%llu "
                 "segments=%llu/%llu live=%llu gc_passes=%llu "
                 "relocated=%llu reclaimed=%llu",
                 static_cast<unsigned long long>(vlog_appends),
                 static_cast<unsigned long long>(vlog_appended_bytes),
                 static_cast<unsigned long long>(vlog_deref_reads),
                 static_cast<unsigned long long>(vlog_segments_created),
                 static_cast<unsigned long long>(vlog_segments_unlinked),
                 static_cast<unsigned long long>(vlog_segments_live),
                 static_cast<unsigned long long>(vlog_gc_passes),
                 static_cast<unsigned long long>(vlog_gc_relocated_bytes),
                 static_cast<unsigned long long>(vlog_gc_reclaimed_bytes));
        out += buf;
    }
    if (wal_frames_replayed > 0 || recovery_ms_to_ready > 0) {
        snprintf(buf, sizeof(buf), "\nrecovery: frames=%llu ready_ms=%llu",
                 static_cast<unsigned long long>(wal_frames_replayed),
                 static_cast<unsigned long long>(recovery_ms_to_ready));
        out += buf;
    }
    if (cache_hits > 0 || cache_misses > 0 || gov_cache_limit > 0 ||
        tuner_moves > 0) {
        snprintf(buf, sizeof(buf),
                 "\ncache: hits=%llu misses=%llu evictions=%llu "
                 "invalidations=%llu hit_rate=%.3f",
                 static_cast<unsigned long long>(cache_hits),
                 static_cast<unsigned long long>(cache_misses),
                 static_cast<unsigned long long>(cache_evictions),
                 static_cast<unsigned long long>(cache_invalidations),
                 cache_hits + cache_misses > 0
                     ? static_cast<double>(cache_hits) /
                           static_cast<double>(cache_hits +
                                               cache_misses)
                     : 0.0);
        out += buf;
        snprintf(
            buf, sizeof(buf),
            "\ngovernor: memtable=%llu/%llu cache=%llu/%llu "
            "nvmbuf=%llu vlog=%llu tuner_moves=%llu",
            static_cast<unsigned long long>(gov_memtable_bytes),
            static_cast<unsigned long long>(gov_memtable_limit),
            static_cast<unsigned long long>(gov_cache_bytes),
            static_cast<unsigned long long>(gov_cache_limit),
            static_cast<unsigned long long>(gov_nvm_buffer_bytes),
            static_cast<unsigned long long>(gov_vlog_bytes),
            static_cast<unsigned long long>(tuner_moves));
        out += buf;
    }
    uint64_t total_jobs = 0;
    for (int j = 0; j < StatsCounters::kJobClasses; j++)
        total_jobs += sched_submitted[j];
    if (total_jobs > 0) {
        static const char *kClassNames[StatsCounters::kJobClasses] = {
            "flush", "lcm",   "zcm",    "ssd",    "walrec",
            "scrub", "vloggc", "walrep", "memtune"};
        snprintf(buf, sizeof(buf), "\nsched: escalations=%llu",
                 static_cast<unsigned long long>(sched_escalations));
        out += buf;
        for (int j = 0; j < StatsCounters::kJobClasses; j++) {
            if (sched_submitted[j] == 0)
                continue;
            snprintf(buf, sizeof(buf),
                     "\n  %-6s sub=%llu done=%llu drop=%llu "
                     "queue=%.3fms run=%.3fms",
                     kClassNames[j],
                     static_cast<unsigned long long>(sched_submitted[j]),
                     static_cast<unsigned long long>(sched_completed[j]),
                     static_cast<unsigned long long>(sched_dropped[j]),
                     sched_queue_ns[j] / 1e6, sched_run_ns[j] / 1e6);
            out += buf;
        }
    }
    return out;
}

} // namespace mio
