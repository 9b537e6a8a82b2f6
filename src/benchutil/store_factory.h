/**
 * @file
 * Builds a KVStore plus its simulated devices from a common bench
 * configuration, so every experiment binary instantiates the three
 * systems identically (same NVM/SSD models, scaled sizes).
 */
#ifndef MIO_BENCHUTIL_STORE_FACTORY_H_
#define MIO_BENCHUTIL_STORE_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "kv/kv_store.h"
#include "matrixkv/matrixkv.h"
#include "miodb/miodb.h"
#include "novelsm/novelsm.h"
#include "sim/storage_medium.h"
#include "util/flags.h"

namespace mio::bench {

/** Everything one store instance needs; destroyed as a unit. */
struct StoreBundle {
    StoreBundle() = default;
    StoreBundle(StoreBundle &&) = default;
    StoreBundle &operator=(StoreBundle &&) = default;

    std::unique_ptr<sim::NvmDevice> nvm;
    std::unique_ptr<sim::SsdDevice> ssd;
    std::unique_ptr<sim::StorageMedium> sstable_medium;
    /** Sharded baselines: one namespaced medium per shard. */
    std::vector<std::unique_ptr<sim::StorageMedium>> shard_media;
    std::unique_ptr<KVStore> store;

    /** Bytes written to NVM+SSD (the WA numerator's device view). */
    uint64_t deviceBytesWritten() const;
    /** Peak NVM bytes allocated (Sec. 5.4 usage reporting). */
    uint64_t nvmPeakBytes() const;

    ~StoreBundle();
};

struct BenchConfig {
    std::string store = "miodb";   //!< miodb|matrixkv|novelsm|novelsm-nosst
    size_t memtable_size = 1u << 20;
    size_t value_size = 1024;
    uint64_t dataset_bytes = 32u << 20;
    uint64_t num_reads = 20000;
    int miodb_levels = 8;
    int bits_per_key = 16;
    bool ssd_mode = false;         //!< SSTables / repository on SSD
    bool perf_model = true;        //!< charge NVM/SSD time costs
    /** NVM buffer budget for the baselines (Fig. 14 sweep). */
    uint64_t nvm_buffer_bytes = 8u << 20;
    /** Elastic-buffer ceiling for MioDB (0 = unlimited, the default;
     *  Fig. 14 caps it at the sweep's largest buffer per the paper). */
    uint64_t miodb_buffer_cap = 0;
    uint64_t seed = 42;
    // MioDB ablation toggles.
    bool one_piece_flush = true;
    bool zero_copy = true;
    bool parallel_compaction = true;
    // Write-pipeline toggles (bench/micro_multiwriter sweeps these).
    bool group_commit = true;
    uint64_t max_group_bytes = 1u << 20;
    // Media-fault ops knobs (MioDB only; DESIGN.md Sec. 5e). Pair
    // with MIO_NVM_FAULTS="capacity=..." to drive exhaustion
    // backpressure from any bench binary.
    uint64_t scrub_interval_ms = 0;
    uint64_t write_stall_timeout_ms = 1000;
    // Key-value separation knobs (MioDB only; DESIGN.md Sec. 5i).
    // 0 disables separation; bench/micro_vlog sweeps both modes.
    size_t value_separation_threshold = 512;
    size_t vlog_segment_bytes = 4u << 20;
    double vlog_gc_trigger_ratio = 0.5;
    /**
     * Horizontal shards behind one ShardedKvStore facade (DESIGN.md
     * Sec. 5g). 1 (the default) takes the exact unsharded code path.
     * N > 1 splits the machine-wide budgets (memtable_size,
     * nvm_buffer_bytes, miodb_buffer_cap) across N shards of the
     * selected engine -- same total DRAM/NVM, N independent write
     * pipelines. Works for the baselines too, so scale-out can be
     * compared engine-to-engine.
     */
    int shards = 1;

    uint64_t
    numKeys() const
    {
        uint64_t per = value_size + 16;
        return dataset_bytes / per;
    }

    /** Parse the common flags shared by all bench binaries. */
    static BenchConfig fromFlags(const Flags &flags);
};

/** Instantiate the configured store with fresh devices. */
StoreBundle makeStore(const BenchConfig &config);

/** LSM geometry scaled to the bench dataset (10x levels, etc.). */
lsm::LsmOptions scaledLsmOptions(const BenchConfig &config);

} // namespace mio::bench

#endif // MIO_BENCHUTIL_STORE_FACTORY_H_
