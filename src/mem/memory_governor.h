/**
 * @file
 * MemoryGovernor: the process-wide memory-budget authority for a
 * store (or a whole shard set). Hybrid-memory LSM performance is
 * decided by how DRAM and NVM are partitioned between write memory
 * and read memory (paper Sec. 2; "Breaking Down Memory Walls" makes
 * the same point for pure-DRAM LSMs), yet the budgets used to be
 * scattered: MemTable capacity in MioOptions, NVM watermarks in the
 * write path, the buffer cap in the compaction path, value-log
 * segments accounted only by the device. This object unifies them:
 *
 *  - named sub-budgets (SubBudget) with a byte limit and a live
 *    charge each; every charger (memtable rotation, PMTable install
 *    boundaries, value-log segments, the DRAM read cache) reserves
 *    from here instead of keeping a private counter;
 *  - redundant total accounting: the governor maintains the sum of
 *    all sub-budget charges *and* an independently updated total, so
 *    a missed release or double charge is detectable at any install
 *    boundary (chargesConsistent, asserted in debug builds and by
 *    the crash sweep's post-recovery validation);
 *  - NVM watermarks as live, tuner-adjustable values (basis points)
 *    instead of fixed option fields;
 *  - the self-tuning DRAM split: tunerPass() observes cumulative
 *    cache / stall / flush counters, and -- with hysteresis (two
 *    agreeing windows to act, two windows of cooldown after acting)
 *    and a per-side floor -- shifts budget between the MemTable
 *    sub-budget and the read cache, and nudges the NVM soft
 *    watermark down under write stalls so migrations start earlier.
 *
 * Thread safety: charge/release/charged/limit are lock-free atomics
 * (charges happen at arena/segment granularity, reads on hot paths).
 * tunerPass is serialized by its own mutex; it is only ever invoked
 * from the kMemTuner periodic scheduler job. The charge ordering
 * (total before sub on charge, sub before total on release)
 * guarantees sum(sub) <= total at every instant, with equality
 * whenever no charge is mid-flight.
 */
#ifndef MIO_MEM_MEMORY_GOVERNOR_H_
#define MIO_MEM_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "kv/store_stats.h"

namespace mio::mem {

/** Named sub-budgets, one per memory consumer family. */
enum class SubBudget : int {
    kMemtableDram = 0,  //!< DRAM write memory (MemTable arenas)
    kReadCacheDram = 1, //!< DRAM read cache for NVM/SSD-resident entries
    kNvmBuffer = 2,     //!< PMTable arenas across all buffer levels
    kVlog = 3,          //!< value-log segment capacity on NVM
};
inline constexpr int kNumSubBudgets = 4;

/** Short stable name for stats dumps and tests. */
const char *subBudgetName(SubBudget b);

class MemoryGovernor
{
  public:
    struct Config {
        /** DRAM write budget per registered memtable charger (one
         *  charger per store instance / shard). */
        size_t memtable_bytes = 1 << 20;
        /** DRAM read-cache budget (machine-wide). 0 disables. */
        size_t read_cache_bytes = 0;
        /** NVM buffer-arena budget. 0 = uncapped. */
        size_t nvm_buffer_bytes = 0;
        /** Value-log segment-capacity budget. 0 = uncapped. */
        size_t vlog_budget_bytes = 0;
        double nvm_soft_watermark = 0.85;
        double nvm_hard_watermark = 0.95;
        /** Enable the kMemTuner policy (tunerPass becomes live). */
        bool adaptive = false;
        /** Neither DRAM side may be tuned below this fraction of the
         *  combined memtable+cache budget. */
        double dram_floor_fraction = 0.125;
        /** kMemTuner cadence. */
        uint64_t tuner_interval_ms = 200;
    };

    /**
     * Cumulative observations feeding one tuner window. Callers pass
     * running counter values (not deltas); the governor differences
     * them against the previous pass internally.
     */
    struct TunerSignals {
        uint64_t cache_hits = 0;
        uint64_t cache_misses = 0;
        uint64_t cache_evictions = 0;
        uint64_t write_stalls = 0;
        uint64_t write_slowdowns = 0;
        uint64_t busy_rejections = 0;
        uint64_t flush_count = 0;
        /** Point-in-time NVM usage fraction (0 when unknown). */
        double nvm_usage = 0.0;
    };

    explicit MemoryGovernor(const Config &config,
                            StatsCounters *stats = nullptr);

    MemoryGovernor(const MemoryGovernor &) = delete;
    MemoryGovernor &operator=(const MemoryGovernor &) = delete;

    /**
     * Account @p bytes against @p b. Unconditional: accounting stays
     * exact even above the limit (enforcement is the caller's
     * admission check, wouldExceed, so denial policies stay where
     * the domain knowledge is).
     */
    void charge(SubBudget b, size_t bytes);
    void release(SubBudget b, size_t bytes);

    uint64_t charged(SubBudget b) const;
    /** Independently maintained sum of all charges (drift witness). */
    uint64_t totalCharged() const;

    /** Current limit for @p b; 0 = unlimited. */
    uint64_t limit(SubBudget b) const;
    /** True when charging @p extra more would cross b's limit. */
    bool wouldExceed(SubBudget b, size_t extra) const;

    /**
     * Register one memtable charger (a store instance / shard). Adds
     * Config::memtable_bytes to the kMemtableDram limit; the per-
     * charger rotation target is the limit divided by the registered
     * count, so the tuner's moves spread evenly across shards.
     */
    void registerMemtableCharger();
    /** Capacity a charger should give its next MemTable. */
    size_t memtableTargetBytes() const;
    int memtableChargers() const;

    /** Live (possibly tuner-adjusted) NVM watermarks. */
    double nvmSoftWatermark() const;
    double nvmHardWatermark() const;

    bool adaptive() const { return config_.adaptive; }
    uint64_t tunerIntervalMs() const { return config_.tuner_interval_ms; }

    /**
     * One tuner window: difference @p now against the previous pass,
     * decide a direction, and -- after two agreeing windows and
     * outside the post-move cooldown -- move one step (1/8 of the
     * combined DRAM budget, clamped to the per-side floor) between
     * kMemtableDram and kReadCacheDram. Independently nudges the NVM
     * soft watermark down while write stalls are observed and back
     * toward the configured value while calm.
     * @return true when any limit or watermark changed (the caller
     *         re-applies the cache capacity).
     */
    bool tunerPass(const TunerSignals &now);
    uint64_t tunerMoves() const;

    /**
     * Drift witness: sum of sub-budget charges equals the redundant
     * total, compared over a window in which no charge or release
     * runs (true when no such window shows up: no evidence).
     */
    bool chargesConsistent() const;

    std::string debugString() const;

    /** Re-point the gauge sink (may be nullptr). */
    void setStats(StatsCounters *stats);

    /**
     * Copy the current charges/limits into the stats sink's gov_*
     * gauges. Pull-based: stats() readers call this; charge/release
     * deliberately do not, both to keep the per-op path to two atomic
     * adds and because a charger can outlive the store that owns the
     * sink (a crashed-open's value log drains here with the sink gone).
     */
    void publishGauges();

  private:

    const Config config_;
    std::atomic<StatsCounters *> stats_;

    std::atomic<uint64_t> charged_[kNumSubBudgets]{};
    std::atomic<uint64_t> total_{0};
    /** Charges/releases between their two updates (the witness waits
     *  for none) and a count of finished ones (it detects a change). */
    std::atomic<uint64_t> updates_in_flight_{0};
    std::atomic<uint64_t> updates_done_{0};
    std::atomic<uint64_t> limits_[kNumSubBudgets]{};
    std::atomic<int> memtable_chargers_{0};

    /** Soft watermark in basis points (tuner-adjustable). */
    std::atomic<uint64_t> soft_wm_bp_;
    std::atomic<uint64_t> tuner_moves_{0};

    // Tuner window state; only the periodic job takes this mutex.
    std::mutex tuner_mu_;
    TunerSignals prev_{};
    bool have_prev_ = false;
    int pending_dir_ = 0;
    int pending_windows_ = 0;
    int cooldown_ = 0;
};

} // namespace mio::mem

#endif // MIO_MEM_MEMORY_GOVERNOR_H_
