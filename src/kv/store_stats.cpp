#include "kv/store_stats.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <type_traits>

namespace mio {

namespace {

/** Calls f(kind, counter, field) for every table entry, where counter
 *  and field are the entry's StatsCounters and StatsSnapshot member
 *  pointers. */
template <typename F>
void
forEachStat(F &&f)
{
#define MIO_STATS_VISIT(name, kind, shape)                                    \
    f(StatKind::kind, &StatsCounters::name, &StatsSnapshot::name);
    MIO_STATS_COUNTERS(MIO_STATS_VISIT)
#undef MIO_STATS_VISIT
}

/** Calls f on each tuple of corresponding scalars of same-shaped
 *  (possibly nested-array) fields. */
template <typename F, typename T, typename... Ts>
void
forEachElement(F &f, T &t, Ts &...ts)
{
    if constexpr (std::is_array_v<T>) {
        for (size_t i = 0; i < std::extent_v<T>; i++)
            forEachElement(f, t[i], ts[i]...);
    } else {
        f(t, ts...);
    }
}

} // namespace

StatsSnapshot
snapshotOf(const StatsCounters &c)
{
    StatsSnapshot s;
    auto load = [](uint64_t &v, const std::atomic<uint64_t> &a) {
        v = a.load(std::memory_order_relaxed);
    };
    forEachStat([&](StatKind, auto counter, auto field) {
        forEachElement(load, s.*field, c.*counter);
    });
    return s;
}

StatsSnapshot
statsDelta(const StatsSnapshot &a, const StatsSnapshot &b)
{
    StatsSnapshot d;
    forEachStat([&](StatKind kind, auto, auto field) {
        // A difference of two point-in-time readings means nothing:
        // gauges and timestamps carry the later one.
        auto sub = [kind](uint64_t &out, uint64_t x, uint64_t y) {
            out = kind == StatKind::kCounter ? x - y : x;
        };
        forEachElement(sub, d.*field, a.*field, b.*field);
    });
    return d;
}

void
statsAdd(StatsSnapshot *acc, const StatsSnapshot &b)
{
    forEachStat([&](StatKind kind, auto, auto field) {
        auto add = [kind](uint64_t &sum, uint64_t x) {
            sum = kind == StatKind::kMax ? std::max(sum, x) : sum + x;
        };
        forEachElement(add, acc->*field, b.*field);
    });
}

void
loadInto(const StatsSnapshot &s, StatsCounters *out)
{
    auto store = [](std::atomic<uint64_t> &a, uint64_t v) {
        a.store(v, std::memory_order_relaxed);
    };
    forEachStat([&](StatKind, auto counter, auto field) {
        forEachElement(store, out->*counter, s.*field);
    });
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
    if (gov_memtable_limit > 0) {
        snprintf(buf, sizeof(buf),
                 "\ngovernor: memtable=%llu/%llu nvmbuf=%llu vlog=%llu",
                 static_cast<unsigned long long>(gov_memtable_bytes),
                 static_cast<unsigned long long>(gov_memtable_limit),
                 static_cast<unsigned long long>(gov_nvm_buffer_bytes),
                 static_cast<unsigned long long>(gov_vlog_bytes));
        out += buf;
    }
    uint64_t total_jobs = 0;
    for (int j = 0; j < StatsCounters::kJobClasses; j++)
        total_jobs += sched_submitted[j];
    if (total_jobs > 0) {
        snprintf(buf, sizeof(buf), "\nsched: escalations=%llu",
                 static_cast<unsigned long long>(sched_escalations));
        out += buf;
        for (int j = 0; j < StatsCounters::kJobClasses; j++) {
            if (sched_submitted[j] == 0)
                continue;
            snprintf(buf, sizeof(buf),
                     "\n  %-6s sub=%llu done=%llu drop=%llu "
                     "queue=%.3fms run=%.3fms",
                     StatsCounters::kJobClassNames[j],
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
