#include "benchutil/store_factory.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "shard/sharded_kv_store.h"
#include "shard/sharded_miodb.h"

namespace mio::bench {

StoreBundle::~StoreBundle()
{
    // The store references the devices: tear it down first.
    store.reset();
    shard_media.clear();
    sstable_medium.reset();
    ssd.reset();
    nvm.reset();
}

uint64_t
StoreBundle::deviceBytesWritten() const
{
    uint64_t total = 0;
    if (nvm)
        total += nvm->meters().bytes_written;
    if (ssd)
        total += ssd->meters().bytes_written;
    return total;
}

uint64_t
StoreBundle::nvmPeakBytes() const
{
    return nvm ? nvm->meters().peak_allocated : 0;
}

BenchConfig
BenchConfig::fromFlags(const Flags &flags)
{
    BenchConfig c;
    c.store = flags.getString("store", c.store);
    c.memtable_size = flags.getSize("memtable_size", c.memtable_size);
    c.value_size = flags.getSize("value_size", c.value_size);
    c.dataset_bytes = flags.getSize("dataset_bytes", c.dataset_bytes);
    c.num_reads = flags.getInt("num_reads", c.num_reads);
    c.miodb_levels = static_cast<int>(
        flags.getInt("levels", c.miodb_levels));
    c.bits_per_key = static_cast<int>(
        flags.getInt("bits_per_key", c.bits_per_key));
    c.ssd_mode = flags.getBool("ssd_mode", c.ssd_mode);
    c.perf_model = flags.getBool("perf_model", c.perf_model);
    c.nvm_buffer_bytes =
        flags.getSize("nvm_buffer_bytes", c.nvm_buffer_bytes);
    c.miodb_buffer_cap =
        flags.getSize("miodb_buffer_cap", c.miodb_buffer_cap);
    c.seed = flags.getInt("seed", c.seed);
    c.one_piece_flush =
        flags.getBool("one_piece_flush", c.one_piece_flush);
    c.zero_copy = flags.getBool("zero_copy", c.zero_copy);
    c.parallel_compaction =
        flags.getBool("parallel_compaction", c.parallel_compaction);
    c.group_commit = flags.getBool("group_commit", c.group_commit);
    c.max_group_bytes =
        flags.getSize("max_group_bytes", c.max_group_bytes);
    c.scrub_interval_ms =
        flags.getInt("scrub_interval_ms", c.scrub_interval_ms);
    c.write_stall_timeout_ms = flags.getInt("write_stall_timeout_ms",
                                            c.write_stall_timeout_ms);
    c.value_separation_threshold = flags.getSize(
        "value_separation_threshold", c.value_separation_threshold);
    c.vlog_segment_bytes =
        flags.getSize("vlog_segment_bytes", c.vlog_segment_bytes);
    c.vlog_gc_trigger_ratio = flags.getDouble("vlog_gc_trigger_ratio",
                                              c.vlog_gc_trigger_ratio);
    c.shards = static_cast<int>(flags.getInt("shards", c.shards));
    return c;
}

lsm::LsmOptions
scaledLsmOptions(const BenchConfig &config)
{
    lsm::LsmOptions o;
    // SSTables the size of one MemTable; L1 holds ~10 of them and each
    // deeper level 10x more (the amplification factor of the paper's
    // baseline configuration).
    o.sstable_target_size = config.memtable_size;
    o.level1_max_bytes = 10ull * config.memtable_size;
    o.amplification_factor = 10;
    o.num_levels = 7;
    o.bits_per_key = config.bits_per_key;
    o.l0_compaction_trigger = 4;
    o.l0_slowdown_trigger = 8;
    o.l0_stop_trigger = 12;
    return o;
}

namespace {

miodb::MioOptions
miodbOptionsFrom(const BenchConfig &config)
{
    miodb::MioOptions o;
    o.memtable_size = config.memtable_size;
    o.elastic_levels = config.miodb_levels;
    o.bits_per_key = config.bits_per_key;
    o.one_piece_flush = config.one_piece_flush;
    o.zero_copy_merge = config.zero_copy;
    o.parallel_compaction = config.parallel_compaction;
    o.group_commit = config.group_commit;
    o.max_group_bytes = config.max_group_bytes;
    o.nvm_buffer_cap_bytes = config.miodb_buffer_cap;
    o.scrub_interval_ms = config.scrub_interval_ms;
    o.write_stall_timeout_ms = config.write_stall_timeout_ms;
    o.use_ssd_repository = config.ssd_mode;
    o.ssd_lsm = scaledLsmOptions(config);
    o.value_separation_threshold = config.value_separation_threshold;
    o.vlog_segment_bytes = config.vlog_segment_bytes;
    o.vlog_gc_trigger_ratio = config.vlog_gc_trigger_ratio;
    return o;
}

/**
 * Per-shard view of a machine-wide config: the DRAM/NVM budgets are
 * divided (with floors so tiny sweeps stay functional), everything
 * else is inherited. Derived geometry (scaledLsmOptions) then scales
 * from the per-shard memtable automatically.
 */
BenchConfig
perShardConfig(const BenchConfig &config)
{
    BenchConfig c = config;
    const uint64_t n = static_cast<uint64_t>(config.shards);
    c.memtable_size = std::max<size_t>(32u << 10,
                                       config.memtable_size / n);
    c.nvm_buffer_bytes = std::max<uint64_t>(
        c.memtable_size, config.nvm_buffer_bytes / n);
    if (config.miodb_buffer_cap != 0) {
        c.miodb_buffer_cap = std::max<uint64_t>(
            2 * c.memtable_size, config.miodb_buffer_cap / n);
    }
    c.shards = 1;
    return c;
}

/** The single-store construction every shape funnels through. */
std::unique_ptr<KVStore>
buildOneStore(const BenchConfig &config, sim::NvmDevice *nvm,
              sim::SsdDevice *ssd, sim::StorageMedium *medium)
{
    if (config.store == "miodb") {
        return std::make_unique<miodb::MioDB>(miodbOptionsFrom(config),
                                              nvm, ssd);
    } else if (config.store == "matrixkv") {
        matrixkv::MatrixkvOptions o;
        o.memtable_size = config.memtable_size;
        o.matrix_capacity = config.nvm_buffer_bytes;
        o.column_budget =
            std::max<uint64_t>(config.memtable_size,
                               config.nvm_buffer_bytes / 2);
        o.lsm = scaledLsmOptions(config);
        // MatrixKV supports parallel compaction (paper Fig. 9a).
        o.lsm.compaction_threads = 4;
        return std::make_unique<matrixkv::MatrixKV>(o, nvm, medium);
    } else if (config.store == "novelsm") {
        novelsm::NovelsmOptions o;
        o.variant = novelsm::Variant::kFlat;
        o.dram_memtable_size = config.memtable_size;
        o.nvm_memtable_size = config.nvm_buffer_bytes;
        o.lsm = scaledLsmOptions(config);
        return std::make_unique<novelsm::NoveLSM>(o, nvm, medium);
    } else if (config.store == "novelsm-hier") {
        novelsm::NovelsmOptions o;
        o.variant = novelsm::Variant::kHierarchical;
        o.dram_memtable_size = config.memtable_size;
        o.nvm_memtable_size = config.nvm_buffer_bytes;
        o.lsm = scaledLsmOptions(config);
        return std::make_unique<novelsm::NoveLSM>(o, nvm, medium);
    } else if (config.store == "novelsm-nosst") {
        novelsm::NovelsmOptions o;
        o.variant = novelsm::Variant::kNoSST;
        return std::make_unique<novelsm::NoveLSM>(o, nvm, medium);
    }
    assert(false && "unknown store name");
    return nullptr;
}

} // namespace

StoreBundle
makeStore(const BenchConfig &config)
{
    StoreBundle bundle;
    bundle.nvm = std::make_unique<sim::NvmDevice>(
        config.perf_model ? sim::MemoryPerfModel::optaneDefault()
                          : sim::MemoryPerfModel::none());
    bundle.ssd = std::make_unique<sim::SsdDevice>(
        config.perf_model ? sim::SsdPerfModel::nvmeDefault()
                          : sim::SsdPerfModel::none());
    if (config.ssd_mode) {
        bundle.sstable_medium =
            std::make_unique<sim::SsdMedium>(bundle.ssd.get());
    } else {
        bundle.sstable_medium =
            std::make_unique<sim::NvmMedium>(bundle.nvm.get());
    }

    if (config.shards <= 1) {
        bundle.store = buildOneStore(config, bundle.nvm.get(),
                                     bundle.ssd.get(),
                                     bundle.sstable_medium.get());
        return bundle;
    }

    const BenchConfig per = perShardConfig(config);
    if (config.store == "miodb") {
        // MioDB shards share one maintenance pool and get their SSD
        // namespacing from the facade itself.
        bundle.store = std::make_unique<shard::ShardedMioDB>(
            miodbOptionsFrom(per), config.shards, bundle.nvm.get(),
            bundle.ssd.get());
        return bundle;
    }

    // Baselines: N independent engine instances behind the generic
    // facade. Each needs its own blob namespace on the shared SSD
    // (the NVM medium is stateless, but one per shard keeps teardown
    // uniform).
    std::vector<std::unique_ptr<KVStore>> shards;
    shards.reserve(config.shards);
    for (int i = 0; i < config.shards; i++) {
        std::unique_ptr<sim::StorageMedium> medium;
        if (config.ssd_mode) {
            medium = std::make_unique<sim::PrefixedMedium>(
                "s" + std::to_string(i) + "/",
                std::make_unique<sim::SsdMedium>(bundle.ssd.get()));
        } else {
            medium =
                std::make_unique<sim::NvmMedium>(bundle.nvm.get());
        }
        shards.push_back(buildOneStore(per, bundle.nvm.get(),
                                       bundle.ssd.get(),
                                       medium.get()));
        bundle.shard_media.push_back(std::move(medium));
    }
    bundle.store =
        std::make_unique<shard::ShardedKvStore>(std::move(shards));
    return bundle;
}

} // namespace mio::bench
