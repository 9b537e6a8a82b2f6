/**
 * @file
 * NVM-resident value log for key-value separation (WiscKey lineage,
 * adapted to MioDB's all-in-memory buffer; see DESIGN.md Sec. 5i).
 *
 * Values above MioOptions::value_separation_threshold are appended
 * once to a segmented log on the NVM device at write time; the index
 * structures (MemTable, PMTables, SSTables) then carry a fixed-size
 * encoded ValuePointer (EntryType::kValuePointer) instead of the
 * bytes. One-piece flushes and zero-copy merges move pointers by
 * construction, and lazy-copy compaction of the bottom level shrinks
 * by the separated-value fraction -- the write-amplification win the
 * paper's Fig. 11 methodology measures as device traffic per user
 * byte.
 *
 * Each record in a segment is self-describing
 * ([crc][key_len][value_len][key][value]) so recovery can rescan the
 * head segment's tail after a power failure (the crash shadow model
 * rolls back unpersisted bytes, so a torn append is detected by its
 * frame CRC and the tail is truncated). A segment that fills is
 * sealed with a footer in its last bytes recording its tail and
 * payload; a reopen reads that footer instead of rescanning the
 * segment. The value is hashed once per frame:
 * its checksum is the pointer's, and it seeds the CRC over the
 * lengths and key (DESIGN.md Sec. 5l). The per-record key makes
 * garbage collection possible without a separate index: GC walks a victim
 * segment's records, probes the store for the newest version of each
 * key, and relocates still-referenced payloads to the head segment.
 *
 * Thread safety: append/read/noteDead may race freely (appends are
 * serialized end to end, so frames persist in segment order; readers
 * resolve a segment id to an owning shared_ptr under the mutex and
 * then read immutable bytes). Segment
 * regions are freed only when the last reference drops, so a reader
 * holding a segment across a concurrent GC unlink stays safe.
 */
#ifndef MIO_MIODB_VALUE_LOG_H_
#define MIO_MIODB_VALUE_LOG_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kv/store_stats.h"
#include "sim/nvm_device.h"
#include "util/slice.h"
#include "util/status.h"

namespace mio::mem {
class MemoryGovernor;
}

namespace mio::miodb {

/**
 * Fixed-size handle to a value-log payload, stored in place of the
 * value bytes in every index structure. The checksum covers the
 * payload and is verified on every dereference, extending the
 * per-entry checksum story to separated values (the index node's own
 * checksum covers the encoded pointer, which flushes and merges carry
 * without rewriting).
 */
struct ValuePointer {
    uint64_t segment_id = 0;
    uint64_t offset = 0;    //!< payload offset inside the segment
    uint32_t length = 0;    //!< payload bytes
    uint32_t checksum = 0;  //!< recordChecksum over the payload

    static constexpr size_t kEncodedSize = 24;

    void encodeTo(char *dst) const;
    std::string encode() const;
    /** @return false if @p in is not exactly kEncodedSize bytes. */
    static bool decode(const Slice &in, ValuePointer *out);

    bool
    operator==(const ValuePointer &o) const
    {
        return segment_id == o.segment_id && offset == o.offset &&
               length == o.length && checksum == o.checksum;
    }
    bool operator!=(const ValuePointer &o) const { return !(*this == o); }
};

/**
 * The per-instance (per-shard) segmented value log. Lives in NvmState
 * so it survives close/reopen alongside the PMTables it is referenced
 * from.
 */
class ValueLog
{
  public:
    ValueLog(sim::NvmDevice *nvm, StatsCounters *stats,
             size_t segment_bytes);
    ~ValueLog();

    ValueLog(const ValueLog &) = delete;
    ValueLog &operator=(const ValueLog &) = delete;

    /**
     * Append one value, durably (persisted before return). Fills
     * @p out with the handle to store in the index.
     * @return busy when the NVM capacity budget denies a new segment.
     */
    Status append(const Slice &key, const Slice &value,
                  ValuePointer *out);

    /**
     * Dereference @p ptr, the pointer stored under @p key, verifying
     * the payload checksum and the whole frame: its CRC, lengths and
     * key must match too.
     * @return notFound when the segment no longer exists (GC unlinked
     *         it concurrently -- the caller re-runs its index lookup,
     *         which finds the relocated pointer), corruption on a
     *         mismatch, ok otherwise.
     */
    Status read(const Slice &key, const ValuePointer &ptr,
                std::string *value) const;

    /**
     * Account a dropped reference (overwrite/delete version collapse
     * in a merge, or a failed GC relocation). Purely a GC-trigger
     * heuristic: it may undercount after a crash (accounting is
     * rebuilt conservatively), never affects correctness.
     */
    void noteDead(const ValuePointer &ptr);

    /** One record recovered from a segment scan (GC input). */
    struct Record {
        std::string key;
        ValuePointer ptr;
    };

    /**
     * Coldest sealed segment whose live fraction is below
     * @p trigger_ratio (live_bytes / appended payload bytes), or 0.
     * Segments already relocated and queued for unlink
     * (markGcQueued) are skipped -- they have no work left.
     */
    uint64_t pickGcVictim(double trigger_ratio) const;
    /** True when pickGcVictim would return a segment. */
    bool hasGcCandidate(double trigger_ratio) const;

    /**
     * Mark @p segment_id as fully relocated and awaiting its
     * snapshot-gated unlink (or as too damaged for GC to walk),
     * removing it from GC candidacy. Cleared
     * only by unlinkSegment or recoverAfterCrash (the caller's
     * pending-unlink list is in-memory and dies with a crash, so
     * recovery must make the segment pickable again).
     */
    void markGcQueued(uint64_t segment_id);

    /**
     * Decode every record of @p segment_id in append order.
     * @return false when the segment does not exist, or when a damaged
     *         frame stops the walk short of the segment's tail (the
     *         records past it are not in @p out, so the caller must
     *         keep the segment).
     */
    bool collectRecords(uint64_t segment_id,
                        std::vector<Record> *out) const;

    /**
     * Drop @p segment_id from the log. Its region is returned to the
     * device once the last concurrent reader releases its reference.
     * The caller must have established that no snapshot can still
     * reach a pointer into it (the oldestSnapshotSeq gate).
     * @return capacity bytes reclaimed, 0 if the segment was unknown.
     */
    uint64_t unlinkSegment(uint64_t segment_id);

    size_t segmentCount() const;
    /** Live-payload estimate for @p segment_id (tests/debug). */
    uint64_t liveBytes(uint64_t segment_id) const;
    /** Start of @p segment_id's region, or nullptr (tests inject
     *  media faults through it). */
    char *segmentBase(uint64_t segment_id) const;

    /** Re-point device/stats sinks after an NvmState adoption. */
    void rebind(sim::NvmDevice *nvm, StatsCounters *stats);

    /**
     * Attach (or with nullptr detach) the memory governor. Segment
     * capacity is charged to SubBudget::kVlog on open and released on
     * unlink; adoption moves the whole outstanding charge from the old
     * governor to the new one, so a log surviving close/reopen in
     * NvmState never leaks its reservation. When the governor's kVlog
     * limit is set, appends that would open a segment beyond it fail
     * with Status::busy.
     *
     * Shared ownership is required, not a convenience: a store ctor
     * that crashes mid-recovery (failpoint SimCrash) unwinds without
     * running the dtor's detach, so this reference is what keeps the
     * torn instance's governor -- and the kVlog charge parked on it --
     * alive until the next open's rebind moves the charge over.
     */
    void rebindGovernor(std::shared_ptr<mem::MemoryGovernor> governor);

    /** Sum of all segment capacities (the kVlog accounting truth). */
    uint64_t capacityBytes() const;

    /**
     * Post-power-failure pass. A segment with a valid seal footer
     * takes its tail and payload from it, reading only the footer.
     * A footerless segment is rescanned from the start, and the first
     * frame with a bad CRC truncates its tail (the crash shadow rolled
     * back an unpersisted append). The newest segment, if footerless,
     * stays the head; any other footerless segment is sealed with a
     * fresh footer. Live-bytes accounting is reset to "everything
     * live" -- conservative, corrected by later GC probes.
     */
    void recoverAfterCrash();

    /**
     * Verify every frame's CRC (background scrubber hook); a segment
     * counts one mismatch at its first bad frame. @return mismatches
     * found; adds the verified frame bytes to @p bytes_verified when
     * given.
     */
    uint64_t scrub(uint64_t *bytes_verified = nullptr) const;

  private:
    struct Segment {
        uint64_t id = 0;
        char *base = nullptr;
        size_t capacity = 0;
        /** Bytes of valid frames (append order, persist-covered);
         *  raised only after a frame's persist. The seal footer sits
         *  past it, in the last bytes of the region. */
        std::atomic<size_t> used{0};
        /** Payload bytes ever appended (GC-ratio denominator). */
        std::atomic<uint64_t> payload_bytes{0};
        /** Payload bytes presumed still referenced. */
        std::atomic<uint64_t> live_bytes{0};
        bool sealed = false;
        /** Relocated, unlink pending behind the snapshot gate. */
        bool gc_queued = false;
        sim::NvmDevice *nvm = nullptr;  //!< owner of base

        ~Segment()
        {
            if (base != nullptr)
                nvm->freeRegion(base);
        }
    };

    /** Locked: open a fresh head segment with room for a
     *  @p min_bytes frame and the footer. */
    std::shared_ptr<Segment> newSegmentLocked(size_t min_bytes);
    std::shared_ptr<Segment> findSegment(uint64_t id) const;
    /** Where @p seg's seal footer lives: its last bytes. */
    static char *footerSlot(const Segment &seg);
    /** Write and persist @p seg's seal footer from its tail fields. */
    void writeFooter(const Segment &seg) const;
    /** Verify @p seg's footer on the media (charging its read);
     *  @return false when it is missing or damaged. */
    bool readFooter(const Segment &seg, size_t *used,
                    uint64_t *payload) const;
    /** Scan one segment's frames; truncates at the first bad frame. */
    void rescanSegment(Segment *seg) const;

    sim::NvmDevice *nvm_;
    StatsCounters *stats_;
    std::shared_ptr<mem::MemoryGovernor> governor_;  //!< guarded by mu_
    const size_t segment_bytes_;

    /** Serializes appends from reservation through persist. */
    std::mutex append_mu_;
    mutable std::mutex mu_;
    std::map<uint64_t, std::shared_ptr<Segment>> segments_;
    std::shared_ptr<Segment> head_;
    uint64_t next_segment_id_ = 1;
};

} // namespace mio::miodb

#endif // MIO_MIODB_VALUE_LOG_H_
