/**
 * @file
 * Read-path micro-benchmark: single-threaded point gets against a
 * frozen elastic buffer whose shape (populated levels x tables per
 * level) is swept explicitly. Workloads: uniform over resident keys,
 * scrambled-zipfian over resident keys, and uniform over absent keys
 * (the negative-lookup case the per-level bloom summaries target).
 *
 * The store runs with auto_compaction off so the pushed PMTables stay
 * exactly where the bench placed them, and with the zero-cost NVM perf
 * model so wall-clock isolates the software read path (manifest loads,
 * bloom probes, DRAM fence searches and their NVM walks). Charged NVM
 * read traffic is still metered and reported, showing where bloom
 * skips and fence walks cut simulated media reads.
 *
 * Emits a machine-readable JSON results file with --json=<path>
 * (scripts/bench_readpath.sh wraps this to seed BENCH_readpath.json),
 * and a fast --smoke mode wired into scripts/check.sh so the binary
 * cannot bit-rot.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "benchutil/reporter.h"
#include "lsm/memtable.h"
#include "miodb/miodb.h"
#include "miodb/one_piece_flush.h"
#include "sched/background_scheduler.h"
#include "util/clock.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/zipfian.h"

using namespace mio;
using namespace mio::bench;
using namespace mio::miodb;

namespace {

uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/**
 * 16-hex-char key for index @p i. mix64 is a bijection, so keys are
 * collision-free, and hashing spreads the discriminating bytes across
 * the whole key (unlike zero-padded decimal keys, whose first half is
 * constant) -- the layout real hashed/UUID key spaces have.
 */
std::string
hexKey(uint64_t i)
{
    char buf[17];
    snprintf(buf, sizeof(buf), "%016llx",
             static_cast<unsigned long long>(mix64(i)));
    return std::string(buf, 16);
}

struct BenchParams {
    uint64_t table_keys = 4000;   //!< keys per PMTable
    int tables_per_level = 4;
    uint64_t gets = 200000;
    size_t value_size = 100;
    int bits_per_key = 16;
    uint64_t seed = 42;
    uint64_t scrub_interval_ms = 0;  //!< --scrub: background scrubber
};

struct RunResult {
    int levels = 0;
    std::string workload;
    uint64_t gets = 0;
    double kiops = 0;
    uint64_t found = 0;
    uint64_t bloom_filter_skips = 0;
    uint64_t bloom_summary_skips = 0;
    uint64_t read_retries = 0;
    uint64_t fence_walk_nodes = 0;
    uint64_t nvm_charged_read_bytes = 0;
};

/**
 * Build a MioDB whose first @p levels buffer levels each hold
 * tables_per_level PMTables; key indices [0, total) are shuffled and
 * dealt out in chunks, so every table spans nearly the full key range
 * (overlapping tables: range checks cannot prune, bloom must).
 */
struct FrozenStore {
    sim::NvmDevice nvm;
    std::unique_ptr<MioDB> db;
    uint64_t total_keys = 0;

    FrozenStore(const BenchParams &p, int levels)
        : nvm(sim::MemoryPerfModel::none())
    {
        MioOptions opt;
        opt.auto_compaction = false;
        opt.enable_wal = false;
        opt.elastic_levels = std::max(levels, 2);
        opt.bits_per_key = p.bits_per_key;
        // --scrub: race the background integrity scrubber against the
        // measured gets (quantifies the scrub overhead on the read
        // path; see EXPERIMENTS.md).
        opt.scrub_interval_ms = p.scrub_interval_ms;
        db = std::make_unique<MioDB>(opt, &nvm);

        total_keys = p.table_keys * p.tables_per_level *
                     static_cast<uint64_t>(levels);
        std::vector<uint64_t> order(total_keys);
        for (uint64_t i = 0; i < total_keys; i++)
            order[i] = i;
        Random rng(p.seed * 31 + 7);
        for (uint64_t i = total_keys - 1; i > 0; i--)
            std::swap(order[i], order[rng.uniform(i + 1)]);

        const size_t mem_cap =
            p.table_keys * (sizeof(SkipList::Node) +
                            SkipList::kMaxHeight * sizeof(void *) + 16 +
                            p.value_size + 32) +
            4096;
        std::string value(p.value_size, 'v');
        StatsCounters build_stats;
        uint64_t next = 0;
        uint64_t seq = 1;
        uint64_t table_id = 1000;
        for (int lvl = 0; lvl < levels; lvl++) {
            for (int t = 0; t < p.tables_per_level; t++) {
                lsm::MemTable mem(mem_cap, p.seed + table_id);
                for (uint64_t k = 0; k < p.table_keys; k++) {
                    bool ok = mem.add(hexKey(order[next++]), seq++,
                                      EntryType::kValue, value);
                    if (!ok) {
                        fprintf(stderr, "memtable sized too small\n");
                        abort();
                    }
                }
                auto table = onePieceFlush(&mem, &nvm, &build_stats,
                                           p.bits_per_key, table_id++);
                db->levels().level(lvl).push(std::move(table));
            }
        }
    }
};

RunResult
runWorkload(FrozenStore &fs, const BenchParams &p, int levels,
            const std::string &workload)
{
    RunResult r;
    r.levels = levels;
    r.workload = workload;
    r.gets = p.gets;

    Random rng(p.seed * 977 + levels);
    ScrambledZipfianGenerator zipf(fs.total_keys, 0.99, p.seed + 13);

    const StatsSnapshot before = snapshotOf(fs.db->stats());
    const uint64_t reads_before = fs.nvm.meters().bytes_read;
    std::string value;
    Stopwatch timer;
    for (uint64_t i = 0; i < p.gets; i++) {
        uint64_t idx;
        if (workload == "zipfian") {
            idx = zipf.next();
        } else {
            idx = rng.uniform(fs.total_keys);
        }
        std::string key;
        if (workload == "miss") {
            // Disjoint index space -> mix64 bijectivity guarantees the
            // key was never inserted.
            key = hexKey((1ULL << 40) + idx);
        } else {
            key = hexKey(idx);
        }
        if (fs.db->get(Slice(key), &value).isOk())
            r.found++;
    }
    r.kiops = p.gets / timer.elapsedSeconds() / 1000.0;
    const StatsSnapshot delta =
        statsDelta(snapshotOf(fs.db->stats()), before);
    r.bloom_filter_skips = delta.bloom_filter_skips;
    r.bloom_summary_skips = delta.bloom_summary_skips;
    r.read_retries = delta.read_retries;
    r.fence_walk_nodes = delta.fence_walk_nodes;
    r.nvm_charged_read_bytes =
        fs.nvm.meters().bytes_read - reads_before;
    return r;
}

void
writeJson(const std::string &path, const BenchParams &p,
          const std::vector<int> &level_sweep,
          const std::vector<RunResult> &runs)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"micro_readpath\",\n";
    out << "  \"config\": {\"table_keys\": " << p.table_keys
        << ", \"tables_per_level\": " << p.tables_per_level
        << ", \"gets\": " << p.gets << ", \"value_size\": "
        << p.value_size << ", \"bits_per_key\": " << p.bits_per_key
        << ", \"levels_swept\": [";
    for (size_t i = 0; i < level_sweep.size(); i++)
        out << (i ? ", " : "") << level_sweep[i];
    out << "]},\n  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); i++) {
        const RunResult &r = runs[i];
        char line[512];
        snprintf(line, sizeof(line),
                 "    {\"levels\": %d, \"workload\": \"%s\", "
                 "\"gets\": %llu, \"kiops\": %.1f, \"found\": %llu, "
                 "\"bloom_filter_skips\": %llu, "
                 "\"bloom_summary_skips\": %llu, "
                 "\"read_retries\": %llu, "
                 "\"fence_walk_nodes\": %llu, "
                 "\"nvm_charged_read_bytes\": %llu}%s\n",
                 r.levels, r.workload.c_str(),
                 static_cast<unsigned long long>(r.gets), r.kiops,
                 static_cast<unsigned long long>(r.found),
                 static_cast<unsigned long long>(r.bloom_filter_skips),
                 static_cast<unsigned long long>(r.bloom_summary_skips),
                 static_cast<unsigned long long>(r.read_retries),
                 static_cast<unsigned long long>(r.fence_walk_nodes),
                 static_cast<unsigned long long>(
                     r.nvm_charged_read_bytes),
                 i + 1 < runs.size() ? "," : "");
        out << line;
    }
    out << "  ]\n}\n";
}

/**
 * --stats: per-job-class scheduler activity aggregated over every
 * store the sweep built (scrub mode is where this is interesting:
 * queue/run latencies of scrub passes racing the measured gets).
 */
void
printSchedStats(const StatsSnapshot &agg)
{
    static const char *kBucketLabels[] = {"<1us",  "<10us", "<100us",
                                          "<1ms",  "<10ms", "<100ms",
                                          "<1s",   ">=1s"};
    static_assert(sizeof(kBucketLabels) / sizeof(kBucketLabels[0]) ==
                  StatsCounters::kSchedLatBuckets);
    TableReporter tbl("Background scheduler, per job class "
                      "(queue = submit->dispatch, run = execution)",
                      {"class", "submitted", "done", "dropped",
                       "avg queue us", "avg run us"});
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        if (agg.sched_submitted[j] == 0 && agg.sched_completed[j] == 0)
            continue;
        double done = static_cast<double>(
            std::max<uint64_t>(agg.sched_completed[j], 1));
        tbl.addRow({sched::jobClassName(static_cast<sched::JobClass>(j)),
                    std::to_string(agg.sched_submitted[j]),
                    std::to_string(agg.sched_completed[j]),
                    std::to_string(agg.sched_dropped[j]),
                    TableReporter::num(
                        agg.sched_queue_ns[j] / 1e3 / done, 1),
                    TableReporter::num(
                        agg.sched_run_ns[j] / 1e3 / done, 1)});
    }
    tbl.print();
    printf("\n  run-latency histograms (completions per decade "
           "bucket):\n");
    for (int j = 0; j < StatsCounters::kJobClasses; j++) {
        if (agg.sched_completed[j] == 0)
            continue;
        printf("    %-12s", sched::jobClassName(
                                static_cast<sched::JobClass>(j)));
        for (int b = 0; b < StatsCounters::kSchedLatBuckets; b++)
            if (agg.sched_run_hist[j][b])
                printf(" %s:%llu", kBucketLabels[b],
                       static_cast<unsigned long long>(
                           agg.sched_run_hist[j][b]));
        printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Flags flags(argc, argv);
    const bool smoke = flags.getBool("smoke", false);
    const bool want_stats = flags.getBool("stats", false);

    BenchParams p;
    p.table_keys = flags.getInt("table_keys", smoke ? 500 : 4000);
    p.tables_per_level = static_cast<int>(
        flags.getInt("tables_per_level", 4));
    p.gets = flags.getInt("gets", smoke ? 20000 : 200000);
    p.value_size = flags.getSize("value_size", 100);
    p.bits_per_key = static_cast<int>(flags.getInt("bits_per_key", 16));
    p.seed = flags.getInt("seed", 42);
    if (flags.getBool("scrub", false))
        p.scrub_interval_ms = flags.getInt("scrub_interval_ms", 5);

    std::vector<int> level_sweep =
        smoke ? std::vector<int>{2, 4} : std::vector<int>{1, 2, 4, 8};

    printExperimentHeader(
        "micro_readpath",
        std::string("Point-get read path vs populated buffer depth "
                    "(uniform / zipfian hits, uniform misses; frozen "
                    "elastic buffer") +
            (p.scrub_interval_ms
                 ? ", background scrubber every " +
                       std::to_string(p.scrub_interval_ms) + " ms)"
                 : ")"));

    TableReporter tbl(
        "Point gets, " + std::to_string(p.tables_per_level) +
            " tables/level, " + std::to_string(p.table_keys) +
            " keys/table (zero-cost NVM model)",
        {"levels", "workload", "KIOPS", "found", "tbl skips",
         "lvl skips", "retries", "fence nodes", "charged MB"});
    std::vector<RunResult> runs;
    StatsSnapshot sched_agg;
    for (int levels : level_sweep) {
        FrozenStore fs(p, levels);
        for (const char *w : {"uniform", "zipfian", "miss"}) {
            RunResult r = runWorkload(fs, p, levels, w);
            runs.push_back(r);
            tbl.addRow({std::to_string(levels), w,
                        TableReporter::num(r.kiops, 1),
                        std::to_string(r.found),
                        std::to_string(r.bloom_filter_skips),
                        std::to_string(r.bloom_summary_skips),
                        std::to_string(r.read_retries),
                        std::to_string(r.fence_walk_nodes),
                        TableReporter::num(
                            r.nvm_charged_read_bytes / 1e6, 1)});
        }
        if (want_stats)
            statsAdd(&sched_agg, snapshotOf(fs.db->stats()));
    }
    tbl.print();
    if (want_stats) {
        printf("\n");
        printSchedStats(sched_agg);
    }

    if (flags.has("json"))
        writeJson(flags.getString("json", ""), p, level_sweep, runs);

    printf("\nEach level is consulted newest-table-first; a per-level "
           "OR-merged bloom summary lets a negative lookup skip a "
           "whole level with one probe, and the epoch-published "
           "manifest makes the per-level snapshot a single atomic "
           "load.\n");
    return 0;
}
