/**
 * @file
 * MemoryGovernor: the charge ledger for a store's (or a whole shard
 * set's) memory budgets -- MemTable arenas, the PMTable buffer and
 * value-log segments. It keeps one book for them:
 *
 *  - named sub-budgets (SubBudget) with a byte limit and a live
 *    charge each; every charger (memtable rotation, PMTable install
 *    boundaries, value-log segments) reserves from here instead of
 *    keeping a private counter;
 *  - redundant total accounting: the governor maintains the sum of
 *    all sub-budget charges *and* an independently updated total, so
 *    a missed release or double charge is detectable at any install
 *    boundary (chargesConsistent, asserted in debug builds and by
 *    the crash sweep's post-recovery validation).
 *
 * Thread safety: charge/release/charged/limit are lock-free atomics
 * (charges happen at arena/segment granularity, reads on hot paths).
 * The charge ordering (total before sub on charge, sub before total on
 * release) guarantees sum(sub) <= total at every instant, with
 * equality whenever no charge is mid-flight.
 */
#ifndef MIO_MEM_MEMORY_GOVERNOR_H_
#define MIO_MEM_MEMORY_GOVERNOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "kv/store_stats.h"

namespace mio::mem {

/** Named sub-budgets, one per memory consumer family. */
enum class SubBudget : int {
    kMemtableDram = 0, //!< DRAM write memory (MemTable arenas)
    kNvmBuffer = 1,    //!< PMTable arenas across all buffer levels
    kVlog = 2,         //!< value-log segment capacity on NVM
};
inline constexpr int kNumSubBudgets = 3;

/** Short stable name for stats dumps and tests. */
const char *subBudgetName(SubBudget b);

class MemoryGovernor
{
  public:
    struct Config {
        /** DRAM write budget per registered memtable charger (one
         *  charger per store instance / shard). */
        size_t memtable_bytes = 1 << 20;
        /** NVM buffer-arena budget. 0 = uncapped. */
        size_t nvm_buffer_bytes = 0;
        /** Value-log segment-capacity budget. 0 = uncapped. */
        size_t vlog_budget_bytes = 0;
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

    /** Limit for @p b; 0 = unlimited. */
    uint64_t limit(SubBudget b) const;
    /** True when charging @p extra more would cross b's limit. */
    bool wouldExceed(SubBudget b, size_t extra) const;

    /**
     * Register one memtable charger (a store instance / shard): the
     * kMemtableDram limit is Config::memtable_bytes times the
     * registered count.
     */
    void registerMemtableCharger();
    int memtableChargers() const;

    /**
     * Drift witness: sum of sub-budget charges equals the redundant
     * total, compared over a window in which no charge or release
     * runs (true when no such window shows up: no evidence).
     */
    bool chargesConsistent() const;

    std::string debugString() const;

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
    /** Gauge sink (may be nullptr). */
    StatsCounters *const stats_;

    std::atomic<uint64_t> charged_[kNumSubBudgets]{};
    std::atomic<uint64_t> total_{0};
    /** Charges/releases between their two updates (the witness waits
     *  for none) and a count of finished ones (it detects a change). */
    std::atomic<uint64_t> updates_in_flight_{0};
    std::atomic<uint64_t> updates_done_{0};
    std::atomic<int> memtable_chargers_{0};
};

} // namespace mio::mem

#endif // MIO_MEM_MEMORY_GOVERNOR_H_
