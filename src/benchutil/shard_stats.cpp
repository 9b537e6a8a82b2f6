#include "benchutil/shard_stats.h"

#include <cstdio>
#include <string>
#include <vector>

#include "benchutil/reporter.h"
#include "kv/store_stats.h"
#include "shard/sharded_kv_store.h"

namespace mio::bench {

namespace {

std::vector<std::string>
statsRow(const std::string &label, const StatsSnapshot &s)
{
    return {label,
            std::to_string(s.puts),
            std::to_string(s.gets),
            std::to_string(s.scans),
            std::to_string(s.flush_count),
            std::to_string(s.zero_copy_merges),
            std::to_string(s.lazy_copy_merges),
            std::to_string(s.vlog_appends),
            std::to_string(s.vlog_deref_reads),
            std::to_string(s.vlog_segments_live),
            std::to_string(s.vlog_gc_passes),
            std::to_string(s.vlog_gc_relocated_bytes),
            std::to_string(s.vlog_gc_reclaimed_bytes),
            std::to_string(s.wal_frames_replayed),
            std::to_string(s.recovery_ms_to_ready),
            std::to_string(s.gov_memtable_bytes),
            std::to_string(s.fence_probes),
            std::to_string(s.fence_walk_nodes),
            std::to_string(s.fence_bytes)};
}

} // namespace

void
printShardStats(KVStore *store)
{
    auto *sharded = dynamic_cast<shard::ShardedKvStore *>(store);
    if (sharded == nullptr) {
        printf("  (unsharded store: no per-shard breakdown)\n");
        return;
    }
    // Facade `scans` counts user-facing calls, shard `scans` the
    // N-way fan-out, so the scans column's sum row exceeds the
    // facade's own counter by design. The ready_ms column aggregates
    // by MAX, not sum (the machine is ready when its slowest shard
    // is). The governor column is nonzero only in the sum row for
    // sharded MioDB: one governor serves the whole set, and its
    // gauges live in the facade's extra sink.
    TableReporter tbl(
        "Per-shard counters (sum row = facade aggregate)",
        {"shard", "puts", "gets", "scans", "flushes", "zcm", "lcm",
         "vl_app", "vl_deref", "vl_segs", "vl_gc", "vl_reloc",
         "vl_reclaim", "replayed", "ready_ms", "gov_mt", "f_probes",
         "f_nodes", "f_bytes"});
    for (int i = 0; i < sharded->numShards(); i++) {
        tbl.addRow(statsRow(std::to_string(i),
                            snapshotOf(sharded->shardAt(i).stats())));
    }
    tbl.addRow(statsRow("sum", snapshotOf(sharded->stats())));
    tbl.print();
}

} // namespace mio::bench
