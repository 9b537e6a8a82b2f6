/**
 * @file
 * NvmDevice: software model of byte-addressable non-volatile memory
 * (Intel Optane DCPMM stand-in).
 *
 * The device hands out raw byte regions that behave exactly like memory
 * (all algorithms run identical load/store code paths), while a
 * performance model charges time for explicit writes/reads routed
 * through the device helpers and meters every byte for write-
 * amplification accounting, mirroring how the paper measures WA as
 * device traffic / user-written bytes.
 *
 * The bandwidth asymmetry the paper measured with FIO (NVM random write
 * ~7x slower than DRAM; read ~3x slower) is the default model. The time
 * charge is implemented as a per-thread debt that is paid with a
 * busy-wait once it exceeds a small threshold, giving an accurate
 * average rate without a spin per store.
 */
#ifndef MIO_SIM_NVM_DEVICE_H_
#define MIO_SIM_NVM_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/slice.h"

namespace mio::sim {

/**
 * Mark the calling thread as background (flush/compaction). Charged
 * device time on background threads is paid by sleeping (yielding the
 * CPU) rather than busy-waiting, so on a small host the simulation
 * behaves like the paper's many-core testbed where background work
 * runs on spare cores. Foreground threads keep busy-waiting so their
 * measured operation latency includes the modelled device time.
 */
void markSimBackgroundThread();
bool simThreadIsBackground();

/** Pay @p ns of simulated device time per the calling thread's kind. */
void paySimDelay(uint64_t ns);

/** Timing parameters of a memory-like device, in ns/byte and fixed ns. */
struct MemoryPerfModel {
    double write_ns_per_byte = 0.0;
    double read_ns_per_byte = 0.0;
    uint64_t write_latency_ns = 0;
    uint64_t read_latency_ns = 0;

    /**
     * Default Optane DCPMM-like model relative to one DRAM channel:
     * write bandwidth ~1/7 of DRAM (paper Sec. 2.1), read ~1/3.
     * DRAM is modelled as free (its cost is the real machine's cost).
     */
    static MemoryPerfModel
    optaneDefault()
    {
        MemoryPerfModel m;
        m.write_ns_per_byte = 0.70; // ~1.4 GB/s random write
        m.read_ns_per_byte = 0.30;  // ~3.3 GB/s read
        m.write_latency_ns = 100;
        m.read_latency_ns = 300;
        return m;
    }

    /** Zero-cost model for functional tests. */
    static MemoryPerfModel none() { return MemoryPerfModel{}; }
};

/** Byte/operation counters exposed for the WA and usage experiments. */
struct NvmMeters {
    uint64_t bytes_written = 0;
    uint64_t bytes_read = 0;
    uint64_t persist_ops = 0;
    uint64_t bytes_allocated = 0;  //!< currently live
    uint64_t peak_allocated = 0;
    uint64_t total_allocated = 0;  //!< cumulative
    /**
     * Crash shadow model bookkeeping (see setCrashShadow). Kept apart
     * from the traffic meters: a discard's restore memcpys are the
     * *absence* of device writes, so they must never inflate
     * bytes_written/persist_ops and thus write amplification.
     */
    uint64_t shadow_discards = 0;         //!< discardUnpersisted calls
    uint64_t shadow_discarded_bytes = 0;  //!< bytes rolled back
};

/**
 * Injectable media-fault model for the emulated NVM module, armable
 * from the environment in the style of sim::FailpointRegistry:
 *
 *   MIO_NVM_FAULTS="capacity=33554432;bitflip_rate=1e-4;spike_ns=50000;spike_rate=0.01"
 *
 * Recognised keys: capacity (bytes; 0 = unlimited), bitflip_rate,
 * torn_rate, stuck_rate, spike_rate (probabilities per eligible op)
 * and spike_ns (added latency when a spike fires). Rate faults draw
 * from a deterministic per-device PRNG so runs are reproducible.
 *
 * Fault scope: bit flips, torn writes and stuck cachelines apply to
 * *framed* writes (WAL frames, NVM-resident blobs) whose payloads are
 * self-verifying via CRCs/checksums, so corruption is detected, never
 * silently served. Bulk one-piece-flush image copies are exempt at
 * device level: their link words are modelled as failure-atomic
 * (matching the crash shadow model's scope) and their payload
 * integrity is exercised through targeted injection
 * (injectBitFlipAt) against the per-entry checksums instead.
 */
struct NvmFaultSpec {
    uint64_t capacity_bytes = 0;  //!< allocation budget; 0 = unlimited
    double bitflip_rate = 0.0;    //!< per framed write: flip one bit
    double torn_rate = 0.0;       //!< per framed write: tail line lost
    double stuck_rate = 0.0;      //!< per framed write: one line stuck
    double spike_rate = 0.0;      //!< per charged op: add spike_ns
    uint64_t spike_ns = 0;

    bool
    anyRateFault() const
    {
        return bitflip_rate > 0.0 || torn_rate > 0.0 ||
               stuck_rate > 0.0 || spike_rate > 0.0;
    }
    /** Parse a "k=v;k=v" spec; unknown/malformed tokens are skipped. */
    static NvmFaultSpec parse(const std::string &spec);
};

/**
 * Fault-injection counters, kept apart from NvmMeters so injected
 * faults never pollute the write-amplification accounting.
 */
struct NvmFaultMeters {
    uint64_t alloc_failures = 0;    //!< budget-denied allocations
    uint64_t bits_flipped = 0;
    uint64_t torn_writes = 0;
    uint64_t stuck_cachelines = 0;
    uint64_t latency_spikes = 0;
};

/** The bytes [begin, end) one injected media fault damaged. */
struct NvmFaultRange {
    const char *begin;
    const char *end;

    bool
    overlaps(const char *b, const char *e) const
    {
        return begin < e && b < end;
    }
};

/**
 * How a bulk write's integrity is protected, deciding media-fault
 * eligibility (see NvmFaultSpec).
 */
enum class WriteKind {
    kFramed,  //!< self-verifying payload (CRC/checksum): fault-eligible
    kImage,   //!< raw structure image: exempt, verified entry-by-entry
};

/**
 * The emulated NVM module. Thread safe. Regions are malloc-backed; the
 * "non-volatile" property is exercised through the WAL/recovery
 * protocol tests plus the crash shadow model below: with the shadow
 * enabled, bytes written through write() but not yet covered by a
 * persist() barrier are rolled back on a simulated power failure, so
 * crash tests observe real loss of unpersisted data.
 */
class NvmDevice
{
  public:
    explicit NvmDevice(MemoryPerfModel model = MemoryPerfModel::none());
    ~NvmDevice();

    NvmDevice(const NvmDevice &) = delete;
    NvmDevice &operator=(const NvmDevice &) = delete;

    /**
     * Allocate a region of @p size bytes. Returns nullptr (never
     * aborts) when the configured capacity budget would be exceeded or
     * the host allocation fails; callers surface Status::busy /
     * Status::ioError instead of crashing.
     */
    char *allocateRegion(size_t size);
    /** Release a region previously returned by allocateRegion. */
    void freeRegion(char *ptr);

    /**
     * Copy @p n bytes into NVM at @p dst, charging write time and
     * metering traffic. This is the only sanctioned bulk-write path.
     * @p kind selects media-fault eligibility (see NvmFaultSpec).
     */
    void write(char *dst, const char *src, size_t n,
               WriteKind kind = WriteKind::kFramed);

    /** Charge a write performed via direct stores (pointer updates). */
    void chargeWrite(size_t n);
    /** Charge an explicit read (deserialization paths). */
    void chargeRead(size_t n);

    /**
     * Charge @p count dependent random reads of @p bytes_each (e.g. a
     * skip-list descent through NVM-resident nodes pays one media
     * latency per level -- the cost that makes big persistent skip
     * lists expensive in the paper's analysis, Sec. 4.1).
     */
    void chargeRandomReads(int count, size_t bytes_each = 64);

    /** Persistence barrier (clwb+sfence stand-in); counted. */
    void persist(const void *addr, size_t n);

    // ---- crash shadow model ----------------------------------------
    //
    // Real NVM loses the contents of CPU caches on power failure:
    // stores become durable only once a persist barrier (clwb+sfence)
    // covers them. With the shadow model enabled, every bulk write()
    // records the bytes it overwrites; persist(addr, n) retires the
    // recorded ranges it covers; discardUnpersisted() restores the
    // leftover (i.e. written-but-never-persisted) ranges to their
    // pre-write contents -- the crash harness calls it between tearing
    // a store down and reopening it, so a simulated crash genuinely
    // loses unpersisted data instead of relying on DRAM goodwill.
    //
    // Scope: only the sanctioned bulk-write path (write()) is
    // shadowed. Direct 8-byte pointer stores (skip-list relinks,
    // in-place node builds) are modelled as failure-atomic and
    // immediately durable, matching the paper's reliance on atomic
    // pointer updates for its recovery protocol.

    /** Enable/disable the shadow model. Disabling clears the log. */
    void setCrashShadow(bool enabled);
    bool
    crashShadowEnabled() const
    {
        return shadow_enabled_.load(std::memory_order_relaxed);
    }
    /** Bytes currently written but not persisted (shadow mode only). */
    uint64_t unpersistedBytes() const;
    /**
     * Simulated power failure: roll every unpersisted range back to
     * its pre-write contents. Traffic meters are untouched -- the
     * rollback models bytes that never reached the media, so charging
     * them would double-count write amplification.
     * @return number of bytes rolled back.
     */
    uint64_t discardUnpersisted();

    MemoryPerfModel model() const { return model_; }
    void setModel(const MemoryPerfModel &m) { model_ = m; }

    NvmMeters meters() const;
    void resetTrafficMeters();

    // ---- media-fault injection -------------------------------------

    /**
     * Install a fault spec (rates + capacity budget). Call before
     * concurrent traffic starts; the env-armed spec (MIO_NVM_FAULTS,
     * read in the constructor) follows the same rule.
     */
    void setFaultSpec(const NvmFaultSpec &spec);
    const NvmFaultSpec &faultSpec() const { return fault_spec_; }
    /** Set/clear the allocation budget at runtime (0 = unlimited). */
    void setCapacityBytes(uint64_t bytes);
    uint64_t
    capacityBytes() const
    {
        return capacity_bytes_.load(std::memory_order_relaxed);
    }

    /** Arm the next @p n framed writes to each lose one random bit. */
    void armBitFlips(uint64_t n);
    /** Arm the next @p n framed writes to lose their tail cacheline. */
    void armTornWrites(uint64_t n);
    /** Arm the next @p n framed writes to keep one old cacheline. */
    void armStuckCachelines(uint64_t n);
    /** Arm the next @p n charged ops to each stall @p ns extra. */
    void armLatencySpikes(uint64_t n, uint64_t ns);

    /**
     * Flip one bit at @p addr (byte offset @p byte, bit @p bit),
     * metering it as an injected media fault. Lets tests target
     * payload bytes precisely (e.g. a value inside a PMTable node)
     * while keeping the meters device-owned.
     */
    void injectBitFlipAt(char *addr, size_t byte = 0, int bit = 0);

    NvmFaultMeters faultMeters() const;

    /**
     * Every range an injected fault has damaged in a region still
     * allocated (bit flips, torn tails, stuck lines), in injection
     * order. A fault test uses
     * it to tell an entry the device damaged from one the store got
     * wrong.
     */
    std::vector<NvmFaultRange> faultRanges() const;

  private:
    void chargeTime(double ns);
    /** Deterministic per-device PRNG draw in [0,1). */
    double faultRand();
    /** True if a one-shot armed count was consumed. */
    static bool tryConsume(std::atomic<uint64_t> &armed);
    bool faultFires(std::atomic<uint64_t> &armed, double rate);
    /** Latency-spike hook shared by every charge path. */
    void maybeSpike();
    void recordFault(const char *begin, size_t n);
    void shadowSave(char *dst, size_t n);
    void shadowPersist(const char *addr, size_t n);
    /** Drop shadow entries inside a region about to be freed. */
    void shadowDropRange(const char *base, size_t size);

    /** One written-but-unpersisted range and its pre-write bytes. */
    struct ShadowEntry {
        char *dst;
        std::string old_bytes;
    };

    MemoryPerfModel model_;
    mutable std::mutex mu_;
    std::unordered_map<char *, size_t> regions_;
    std::atomic<uint64_t> bytes_written_{0};
    std::atomic<uint64_t> bytes_read_{0};
    std::atomic<uint64_t> persist_ops_{0};
    std::atomic<uint64_t> bytes_allocated_{0};
    std::atomic<uint64_t> peak_allocated_{0};
    std::atomic<uint64_t> total_allocated_{0};

    std::atomic<bool> shadow_enabled_{false};
    mutable std::mutex shadow_mu_;
    /** Chronological; discard restores in reverse order so stacked
     *  overwrites unwind correctly. */
    std::vector<ShadowEntry> shadow_log_;
    std::atomic<uint64_t> shadow_discards_{0};
    std::atomic<uint64_t> shadow_discarded_bytes_{0};

    // Fault injection (see NvmFaultSpec). The spec is written only
    // before concurrent traffic; the armed counts and meters are
    // atomics so tests can arm/inspect at runtime.
    NvmFaultSpec fault_spec_;
    std::atomic<uint64_t> capacity_bytes_{0};
    std::atomic<uint64_t> armed_bitflips_{0};
    std::atomic<uint64_t> armed_torn_{0};
    std::atomic<uint64_t> armed_stuck_{0};
    std::atomic<uint64_t> armed_spikes_{0};
    std::atomic<uint64_t> armed_spike_ns_{0};
    std::atomic<uint64_t> fault_rng_{0x9e3779b97f4a7c15ULL};
    std::atomic<uint64_t> alloc_failures_{0};
    std::atomic<uint64_t> bits_flipped_{0};
    std::atomic<uint64_t> torn_writes_{0};
    std::atomic<uint64_t> stuck_cachelines_{0};
    std::atomic<uint64_t> latency_spikes_{0};
    mutable std::mutex fault_mu_;
    std::vector<NvmFaultRange> fault_ranges_;  //!< guarded by fault_mu_
};

/**
 * Expected node visits for a search in a skip list of @p entries
 * elements (~log2 n), used to charge NVM-resident descents.
 */
inline int
skipDescentDepth(uint64_t entries)
{
    int depth = 1;
    while (entries > 1) {
        entries >>= 1;
        depth++;
    }
    return depth;
}

} // namespace mio::sim

#endif // MIO_SIM_NVM_DEVICE_H_
