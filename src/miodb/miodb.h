/**
 * @file
 * MioDB: the paper's LSM-based KV store for hybrid DRAM/NVM memory.
 *
 * Write path: WAL append (NVM) -> DRAM MemTable -> one-piece flush to
 * an L0 PMTable -> cascading zero-copy merges through the elastic
 * buffer -> lazy-copy into the data repository (huge NVM skip list,
 * or a leveled SSTable LSM on SSD in hierarchy mode).
 *
 * All maintenance (flush, per-level merges, WAL recycling, scrubbing,
 * and in SSD mode the repository LSM's compactions) runs as typed jobs
 * on one BackgroundScheduler, which arbitrates them by class priority
 * and escalates merge classes under memory pressure.
 *
 * Read path: MemTable -> immutable MemTables -> buffer levels top to
 * bottom (newest table first, bloom filters prune; in-flight merges
 * are queried with the newtable -> insertion mark -> oldtable
 * protocol) -> repository.
 */
#ifndef MIO_MIODB_MIODB_H_
#define MIO_MIODB_MIODB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "kv/kv_store.h"
#include "lsm/memtable.h"
#include "mem/memory_governor.h"
#include "miodb/lazy_copy_merge.h"
#include "miodb/level_manager.h"
#include "miodb/options.h"
#include "miodb/value_log.h"
#include "miodb/zero_copy_merge.h"
#include "sched/background_scheduler.h"
#include "sim/storage_medium.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace mio::miodb {

/**
 * The durable NVM-resident half of a MioDB instance: the elastic
 * buffer's PMTables, any in-flight merge/migration, and the data
 * repository. Real NVM survives power failure; in this emulation the
 * same property is modelled by keeping this state in a shared handle
 * that outlives the store object -- pass the handle to the next open
 * and MioDB resumes interrupted compactions (paper Sec. 4.7) and
 * replays the WAL for the DRAM-buffered remainder.
 */
struct NvmState {
    explicit NvmState(int elastic_levels) : levels(elastic_levels) {}

    LevelManager levels;
    /** SSD-mode only: the medium the repository's SSTables live on. */
    std::unique_ptr<sim::StorageMedium> ssd_medium;
    std::unique_ptr<Repository> repo;  //!< destroyed before the medium
    /**
     * Key-value separation: the NVM value log the index structures'
     * kValuePointer entries dereference into. Created when
     * value_separation_threshold > 0; lives here because pointers in
     * surviving PMTables/SSTables must stay resolvable across
     * close/reopen and crash adoption.
     */
    std::unique_ptr<ValueLog> vlog;
    std::atomic<uint64_t> next_table_id{1};
    /**
     * Highest sequence number any flushed table holds (LevelDB's
     * manifest last_sequence), raised right after a flush publishes
     * its table. Flushes run in sequence order, so every op at or
     * below it is in the image: a reopen replays only WAL records
     * above it, and allocates past it even when the WAL is empty.
     */
    std::atomic<uint64_t> last_sequence{0};
};

class MioDB : public KVStore
{
  public:
    /**
     * Open a MioDB instance.
     *
     * @param options configuration (Sec. 5 defaults, scaled)
     * @param nvm the emulated NVM module (required)
     * @param ssd simulated SSD; required iff options.use_ssd_repository
     * @param wal_registry external WAL home surviving this object
     *        (enables crash-recovery tests); nullptr for a private one
     * @param state NVM image from a previous (possibly crashed)
     *        instance; nullptr opens a fresh store. Level count must
     *        match options.elastic_levels.
     * @param shared_scheduler an externally-owned maintenance pool
     *        (ShardedMioDB hands every shard the same one); nullptr
     *        builds a private scheduler as before. A shared pool's
     *        owner keeps the worker census, stats sink, crash
     *        callback, and urgency probes: this instance only submits
     *        jobs. The pool must outlive this instance, and after a
     *        crash the owner must shutdown(false) the pool before
     *        destroying it (a frozen pool's running job may still
     *        reference shard memory).
     * @param governor an externally-owned memory governor (ShardedMioDB
     *        shares one across all shards); nullptr builds a private
     *        one from the options. This instance only charges
     *        budgets.
     */
    MioDB(const MioOptions &options, sim::NvmDevice *nvm,
          sim::SsdDevice *ssd = nullptr,
          wal::WalRegistry *wal_registry = nullptr,
          std::shared_ptr<NvmState> state = nullptr,
          sched::BackgroundScheduler *shared_scheduler = nullptr,
          std::shared_ptr<mem::MemoryGovernor> governor = nullptr);
    ~MioDB() override;

    Status put(const Slice &key, const Slice &value) override;
    Status get(const Slice &key, std::string *value) override;
    Status remove(const Slice &key) override;
    /**
     * Atomic batch: one WAL record covers the whole batch, so after a
     * crash either every op of the batch is recovered or (only if the
     * record itself was torn) none past the tear -- and concurrent
     * readers never observe a partially applied batch ordering
     * younger writes first.
     */
    Status write(const WriteBatch &batch) override;
    Status scan(const Slice &start_key, int count,
                std::vector<std::pair<std::string, std::string>> *out)
        override;
    /**
     * Pin a point-in-time view: the live MemTables, every level's
     * published manifest (one owning acquire per level), and the
     * repository's file version. Writes, flushes, merges, and
     * compactions continue underneath; version reclamation is gated
     * (oldestSnapshotSeq) so everything the view can reach survives
     * until releaseSnapshot.
     */
    Snapshot *getSnapshot() override;
    void releaseSnapshot(Snapshot *snapshot) override;
    Status scanAt(const Snapshot *snapshot, const Slice &start_key,
                  int count,
                  std::vector<std::pair<std::string, std::string>> *out)
        override;
    void waitIdle() override;
    // Gauges are pull-published: refresh the governor's gov_* gauges
    // into its sink (this store's counters, or the facade's shared
    // sink in sharded mode) so every reader sees current charges.
    const StatsCounters &
    stats() const override
    {
        governor_->publishGauges();
        stats_.fence_bytes.store(state_->levels.fenceBytes(),
                                 std::memory_order_relaxed);
        return stats_;
    }
    std::string
    name() const override
    {
        return options_.use_ssd_repository ? "MioDB-SSD" : "MioDB";
    }

    // ---- introspection for tests and benches ----

    const MioOptions &options() const { return options_; }
    LevelManager &levels() { return state_->levels; }
    Repository &repository() { return *state_->repo; }
    /** The durable NVM image (hand to the next open after a crash). */
    std::shared_ptr<NvmState> nvmState() const { return state_; }
    uint64_t currentSequence() const
    {
        return seq_.load(std::memory_order_relaxed);
    }
    /**
     * The version-reclamation bound compactions run under: a merge
     * may only drop a version shadowed by a newer one at or below
     * this sequence. Two components, both required:
     *  - the oldest live snapshot's bound (that snapshot must keep
     *    seeing every version visible at its capture), and
     *  - the committed watermark (visible_seq_), which caps the bound
     *    ANY future snapshot can capture -- without it, a merge that
     *    sampled "no snapshots" could drop a version shadowed only by
     *    a not-yet-committed write, breaking a snapshot registered a
     *    moment later.
     */
    uint64_t oldestSnapshotSeq() const;
    /** NVM bytes referenced by buffer tables (elastic footprint). */
    size_t elasticBufferBytes() const
    {
        return state_->levels.totalArenaBytes();
    }

    /** Multi-line dump of engine state (levels, repo, stats). */
    std::string debugString();

    /**
     * Run one synchronous scrub pass over every PMTable (buffer
     * levels, in-flight merges, migrations) and the data repository,
     * verifying per-entry checksums and quarantining corrupt tables.
     * The periodic scrub job (options.scrub_interval_ms > 0) calls
     * this on its period; tests call it directly for deterministic
     * coverage.
     * @return checksum mismatches found in this pass.
     */
    uint64_t scrubNow();

    /**
     * Simulate a power failure: the scheduler freezes (queued jobs are
     * dropped, workers stop where they are) and the destructor will
     * NOT flush buffered data, leaving the WAL segments in the
     * registry for replay by the next open. A fired failpoint
     * (sim::SimCrash) triggers the same transition.
     */
    void simulateCrash();

    /** The store's maintenance executor (tests/benches introspect). */
    sched::BackgroundScheduler &scheduler() { return *sched_; }

    /** The memory-budget authority (never null after construction). */
    mem::MemoryGovernor &governor() { return *governor_; }

    /**
     * Drift witness for the crash sweep's post-recovery validation
     * and debug asserts: the governor's internal sum-vs-total
     * invariant always, plus -- when nothing is reshaping the buffer
     * (no busy jobs, no in-flight merge/migration) -- exact equality
     * of each sub-budget charge against its ground truth (buffer
     * arena bytes, value-log segment capacity).
     */
    bool memoryAccountingConsistent() const;

    /**
     * True while the elastic buffer exceeds its cap or NVM usage sits
     * above the soft watermark -- the condition that escalates merge
     * jobs. Exposed so a shared-scheduler owner can install one
     * aggregate urgency probe spanning every shard.
     */
    bool underMemoryPressure() const;

    /**
     * Called exactly once when this instance transitions to crashed
     * (failpoint, scheduler crash propagation, or simulateCrash). A
     * sharded facade uses it to spread one shard's power failure to
     * the whole machine. Set before any traffic; must not throw.
     */
    void setCrashHook(std::function<void()> hook)
    {
        crash_hook_ = std::move(hook);
    }

    /**
     * Test hook: @p hook(level) runs on the reading thread right after
     * a point lookup loads a buffer level's manifest and before it
     * probes it, so a test can interleave a merge step exactly there.
     * Install only while no reads are in flight.
     */
    void
    setManifestProbeHookForTesting(std::function<void(int)> hook)
    {
        manifest_probe_hook_ = std::move(hook);
    }

  private:
    /** Fault tests locate a key's value frame through findNewestRaw. */
    friend struct MioDBTestPeer;

    /**
     * One queued write: either a single op (batch == nullptr; key and
     * value alias the caller's slices, which stay valid while the
     * caller blocks in writeImpl) or a whole WriteBatch. Writers park
     * on their own condition variable until a leader commits them.
     */
    struct Writer {
        const WriteBatch *batch = nullptr;
        Slice key;
        Slice value;
        EntryType type = EntryType::kValue;
        size_t op_count = 1;
        size_t payload_bytes = 0;  //!< approximate WAL payload share
        /**
         * GC relocation: value is a pre-encoded kValuePointer to an
         * already-relocated payload, applied only if the key's newest
         * committed entry still equals expected_ptr when the leader
         * commits (re-verified under leadership -- a user write may
         * have raced ahead). Skipped relocations complete with
         * notFound; they are never WAL-logged or applied.
         */
        bool relocation = false;
        ValuePointer expected_ptr;
        /** ok = applied; notFound = superseded (new copy is garbage);
         *  corruption = probe hit damage (liveness unknown). */
        Status relocation_outcome;
        Status status;
        bool done = false;
        std::condition_variable cv;
    };

    /** Flattened view of one op inside a commit group. */
    struct OpRef {
        EntryType type;
        Slice key;
        Slice value;
    };

    /**
     * Queue @p w and block until a leader (possibly @p w itself)
     * commits it. The front writer of writers_ becomes leader, claims
     * followers up to options_.max_group_bytes, reserves a contiguous
     * sequence block, and commits the whole group with one combined
     * WAL record.
     */
    Status writeImpl(Writer *w);
    /** Leader-only: WAL + MemTable apply for a claimed group. */
    Status commitGroup(const std::vector<Writer *> &group,
                       uint64_t base_seq);
    /** A SimCrash reached a thread boundary: freeze the store. */
    void onSimCrash();
    Status validateEntry(const Slice &key, const Slice &value) const;
    /** Throttle writers while the elastic buffer exceeds its cap. */
    void applyBufferCap();
    /**
     * NVM exhaustion backpressure (only when the device has a capacity
     * budget). Above the soft watermark each commit sleeps
     * write_slowdown_micros and migration urgency is boosted; above
     * the hard watermark the leader stalls (bounded by
     * write_stall_timeout_ms) and then fails the group with busy.
     */
    Status applyNvmWatermarks();
    /** True when NVM usage exceeds the soft watermark (boost hint). */
    bool nvmOverSoftWatermark() const;
    /** Wake writers throttled by applyBufferCap (footprint dropped). */
    void notifyCapWaiters();
    /**
     * Swap in a fresh MemTable + WAL segment. Caller is the leader
     * (or holds write_mu_). @p relog, if given, appends records to
     * the NEW segment before the old table becomes flushable — any
     * group remainder must be durable there first, because the old
     * segment (the only full-group record) dies with the old table's
     * flush.
     */
    void rotateMemTable(const std::function<void()> &relog = nullptr);
    std::string walName(uint64_t id) const;
    /** @return busy when the NVM capacity budget denied the frame. */
    Status appendWal(uint64_t seq, EntryType type, const Slice &key,
                     const Slice &value);
    /**
     * Log group ops [from, end) as one combined record whose first op
     * has @p first_seq; single-op spans keep the singleton encoding.
     * @return busy when the NVM capacity budget denied the frame.
     */
    Status appendWalOps(const std::vector<OpRef> &ops, size_t from,
                        uint64_t first_seq);
    /**
     * Open-time recovery: finish interrupted merges/migrations, prime
     * the buffer charge, and replay the WAL. May throw sim::SimCrash.
     */
    void recover();
    /**
     * A SimCrash escaped recover(): freeze, wait out this instance's
     * running jobs, and detach from the NVM image, so the constructor
     * can unwind with no job left referencing this object.
     */
    void abandonOpen();
    /** Drop the NVM image's callbacks into this instance. */
    void detachFromNvmState();
    /**
     * Replay every WAL segment an earlier instance left behind, oldest
     * first, re-logging each record into this instance's own segments
     * before the old ones are removed.
     */
    void replayWal();
    /**
     * Apply one WAL record's ops with their ORIGINAL sequences,
     * skipping any op below @p max_seq (the next sequence after what
     * the image and this replay already hold), then raise it.
     */
    void replayRecord(const Slice &record, uint64_t *max_seq,
                      bool *relog_failed);

    // ---- background maintenance (maintenance.cpp) ----

    /** Outcome of one compaction attempt at a level. */
    enum class CompactResult {
        kWorked,      //!< made progress; look again immediately
        kNoWork,      //!< nothing runnable at this level
        kRetryLater,  //!< transient denial (NVM budget); back off
    };

    /** Bind the maintenance executor: adopt @p shared or build one. */
    void startScheduler(sched::BackgroundScheduler *shared);
    /** Worker-pool size implied by options (0 in deterministic mode). */
    int backgroundWorkerCount() const;
    /** Ensure a flush job is queued (token-deduplicated). */
    void scheduleFlush();
    /** Ensure a compaction job for @p level is queued (token-dedup). */
    void scheduleCompaction(int level);
    /** Queue async recycling of a flushed segment's WAL file. */
    void scheduleWalRecycle(uint64_t wal_id);
    /** Schedule every level that may have runnable work. */
    void kickCompaction();
    /** Schedule flush + compactions (waiters' wedge-escape kick). */
    void kickMaintenance();
    /** Job body: drain the immutable queue into L0 PMTables. */
    void flushJob();
    /** Job body: compact @p level until no work or a transient denial. */
    void compactionJob(int level);
    CompactResult compactLevelOnce(int level);
    /** True when @p level has (or may soon have) runnable work. */
    bool levelHasWork(int level) const;
    /** Finish merges/migrations interrupted by a crash (Sec. 4.7). */
    void recoverInterruptedCompactions();
    /**
     * Give @p table a fence index by a charged level-0 walk unless it
     * already has one (a zero-copy merge of an input a reopen left
     * without a fence, or a resumed merge).
     */
    void ensureFence(PMTable *table);
    /**
     * Job body (kScrub class, run once per reopen): rebuild the fence
     * indexes adoption dropped. Until a table's fence is published,
     * gets on it take the plain descent.
     */
    void fenceRebuildJob();

    /**
     * @param corrupt set when the lookup hit a checksum-failing entry
     *        or a quarantined table that could hold @p key; the caller
     *        must answer corruption, never fall through to stale data.
     */
    bool lookupBufferAndRepo(const Slice &key, std::string *value,
                             EntryType *type, uint64_t *seq,
                             bool *corrupt);

    /**
     * Newest version of @p key across every structure WITHOUT
     * dereferencing value pointers (GC's liveness probe): a
     * kValuePointer hit returns the encoded pointer bytes in
     * @p value. No read-stats bumps.
     */
    bool findNewestRaw(const Slice &key, std::string *value,
                       EntryType *type, uint64_t *seq, bool *corrupt);

    // ---- memory governor ----

    /** New MemTable of options.memtable_size bytes, charged to kMemtableDram until the table's last owner drops. */
    std::shared_ptr<lsm::MemTable> makeMemTable(uint64_t seed);
    /** Account buffer-arena bytes (this shard's share + governor). */
    void chargeNvmBuffer(size_t bytes);
    void releaseNvmBuffer(size_t bytes);
    /** This shard's live kNvmBuffer charge (cap/pressure checks). */
    uint64_t
    nvmBufferCharged() const
    {
        return nvm_buffer_bytes_.load(std::memory_order_relaxed);
    }

    // ---- value log (key-value separation) ----

    /**
     * Merge drop hook: when a dropped version is a kValuePointer,
     * decay the owning segment's live-bytes estimate and kick GC if a
     * segment crossed the trigger ratio.
     */
    void noteDropped(EntryType type, const Slice &value);
    /** Ensure a vlog GC job is queued (token-deduplicated). */
    void scheduleVlogGc();
    /** Job body: process gated unlinks, relocate one victim segment. */
    void vlogGcJob();

    /**
     * Quiescent-state reclamation for merged PMTable chains. Zero-copy
     * merges entangle node graphs across tables, so a reader iterating
     * one table can legitimately walk into nodes whose arenas are
     * co-owned by the final table of the chain. That final table is
     * therefore retired through a graveyard that is only swept once no
     * reader that could have observed it is still in flight.
     */
    class ReadGuard
    {
      public:
        explicit ReadGuard(MioDB *db) : db_(db)
        {
            db_->active_readers_.fetch_add(1,
                                           std::memory_order_acquire);
            // Pairs with the fence in retireToGraveyard(): a retirer
            // that misses this increment is guaranteed to have
            // published its replacement manifest before our first
            // acquireManifest() load (store-buffering resolution), so
            // an immediately-freed manifest is never reachable here.
            std::atomic_thread_fence(std::memory_order_seq_cst);
        }
        ~ReadGuard()
        {
            // acq_rel: the acquire half makes every earlier reader's
            // in-guard loads (their decrements form a release sequence
            // on this counter) happen-before the sweep below, so the
            // last reader out can safely free what they were reading.
            if (db_->active_readers_.fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
                db_->sweepGraveyard();
            }
        }
        ReadGuard(const ReadGuard &) = delete;
        ReadGuard &operator=(const ReadGuard &) = delete;

      private:
        MioDB *db_;
    };

    void retireTable(std::shared_ptr<PMTable> table);
    /**
     * Defer destruction of a retired object (PMTable chain or level
     * manifest) until no reader that could have observed it is in
     * flight; frees immediately when provably unobserved.
     */
    void retireToGraveyard(std::shared_ptr<const void> retired);
    void sweepGraveyard();

    /**
     * Probe one level's published manifest: summary filter first (one
     * negative probe skips the level), then resident tables newest
     * first, the in-flight merge pair (three-step protocol), and the
     * migrating table -- all via metadata captured at publish time,
     * no locks.
     */
    bool probeLevelManifest(const LevelManifest &m, const Slice &key,
                            uint64_t h1, uint64_t h2,
                            std::string *value, EntryType *type,
                            uint64_t *seq, bool use_bloom,
                            bool *corrupt);
    /**
     * Look @p key up in one resident or migrating table: a level-0
     * walk from the fence floor when @p fence is set, else the plain
     * top-down descent. Charges the NVM reads either path makes.
     */
    bool probeTable(const PMTable &table, const FenceIndex *fence,
                    const Slice &key, std::string *value,
                    EntryType *type, uint64_t *seq, bool verify,
                    bool *corrupt);

    /**
     * A pinned view (see getSnapshot). All members are owning
     * references: the snapshot stays readable even while background
     * work replaces manifests and compacts files underneath, and its
     * pins are what the graveyard/ReadGuard machinery never sees --
     * release drops the references and normal reclamation resumes.
     */
    class MioSnapshot : public Snapshot
    {
      public:
        uint64_t sequence() const override { return bound; }

        /** Held first so the NVM image outlives every other pin. */
        std::shared_ptr<NvmState> state;
        /** Visibility bound: entries with seq > bound are invisible. */
        uint64_t bound = 0;
        /** Live + immutable MemTables at capture, newest first. */
        std::vector<std::shared_ptr<lsm::MemTable>> mems;
        /** One published manifest per buffer level, top to bottom. */
        std::vector<std::shared_ptr<const LevelManifest>> manifests;
        /** Repository file-version pin (SSD mode; else nullptr). */
        std::shared_ptr<const void> repo_pin;
    };

    MioOptions options_;
    sim::NvmDevice *nvm_;
    sim::SsdDevice *ssd_;
    /** Mutable for the pull-published gauges stats() refreshes. */
    mutable StatsCounters stats_;
    std::function<void(int)> manifest_probe_hook_;

    // Memory governor (private, or shared across a shard set).
    // nvm_buffer_bytes_ is this shard's slice of the governor's kNvmBuffer charge (the
    // per-shard cap and pressure checks compare against it).
    std::shared_ptr<mem::MemoryGovernor> governor_;
    std::atomic<uint64_t> nvm_buffer_bytes_{0};

    std::unique_ptr<wal::WalRegistry> owned_registry_;
    wal::WalRegistry *registry_;

    // Write state. write_mu_ guards only the writer queue; the leader
    // releases it while appending the group's WAL record and applying
    // MemTable inserts (leadership itself serializes those), so
    // followers can enqueue during the commit -- that window is what
    // lets groups form.
    std::mutex write_mu_;
    std::deque<Writer *> writers_;
    std::shared_ptr<lsm::MemTable> mem_;
    uint64_t mem_wal_id_ = 0;
    uint64_t first_own_wal_id_ = 0;  //!< replay floor (see replayWal)
    std::shared_ptr<wal::LogSegment> mem_wal_;
    std::atomic<uint64_t> seq_{1};

    // Immutable queue (guarded by imm_mu_).
    std::mutex imm_mu_;
    struct Immutable {
        std::shared_ptr<lsm::MemTable> mem;
        uint64_t wal_id;
    };
    std::deque<Immutable> imms_;

    std::shared_ptr<NvmState> state_;

    /**
     * Highest sequence number whose write has fully committed
     * (release-stored by the group leader after the last MemTable
     * insert; acquire-loaded by getSnapshot so a snapshot's bound
     * covers only entries that are already present in some pinned
     * source). Also caps oldestSnapshotSeq -- see that method.
     */
    std::atomic<uint64_t> visible_seq_{0};

    // Snapshot registry: live pins and their bounds (multiset -- two
    // snapshots may share a bound), guarded by snap_mu_. getSnapshot
    // registers the bound BEFORE pinning sources so any merge started
    // afterwards keeps what the snapshot needs.
    mutable std::mutex snap_mu_;
    std::multiset<uint64_t> snap_bounds_;
    std::set<MioSnapshot *> live_snapshots_;

    // Reader epoch tracking + deferred reclamation (see ReadGuard).
    std::atomic<int> active_readers_{0};
    std::mutex grave_mu_;
    std::vector<std::shared_ptr<const void>> graveyard_;

    // Background maintenance: one scheduler runs every job class. The
    // per-class "scheduled" tokens deduplicate submissions -- at most
    // one flush job and one compaction job per level is ever queued or
    // running, preserving the old dedicated-thread serialization per
    // work stream while letting the pool interleave streams.
    // owned_sched_ is set only in standalone mode (mirrors the
    // owned_registry_/registry_ pattern); in shared mode sched_ points
    // at the facade's pool.
    sched::BackgroundScheduler *sched_ = nullptr;
    std::unique_ptr<sched::BackgroundScheduler> owned_sched_;
    std::function<void()> crash_hook_;
    std::atomic<bool> flush_scheduled_{false};
    /** A reopen's fence rebuild is queued, delayed, or running. */
    std::atomic<bool> fence_rebuild_scheduled_{false};
    /** Delay between open and the fence rebuild (see the ctor). */
    static constexpr uint64_t kFenceRebuildDelayMs = 10;
    std::unique_ptr<std::atomic<bool>[]> compact_scheduled_;
    /**
     * Held by a compaction job from its token release to its last touch
     * of the store, and by a closing store while it sets shutting_down_
     * and once more after the tokens are free (see compactionJob).
     */
    std::mutex compact_exit_mu_;
    std::atomic<bool> vlog_gc_scheduled_{false};
    /**
     * GC jobs write through the normal commit path, so none may be
     * submitted until the constructor has the WAL/MemTable machinery
     * up (recovery's merge drop hooks fire well before that).
     */
    std::atomic<bool> vlog_gc_enabled_{false};
    /**
     * Segments whose live records were all relocated, awaiting the
     * snapshot gate: the segment is only unlinked once every snapshot
     * captured before the relocations committed (bound < gc_seq) has
     * been released -- such a snapshot may still resolve the old
     * pointers. Guarded by vlog_gc_mu_.
     */
    struct PendingUnlink {
        uint64_t segment_id;
        uint64_t gc_seq;
    };
    std::mutex vlog_gc_mu_;
    std::vector<PendingUnlink> vlog_pending_unlinks_;
    uint64_t scrub_job_id_ = 0;  //!< periodic registration handle
    std::atomic<bool> shutting_down_{false};
    std::atomic<bool> crashed_{false};

    /**
     * Set while the flush job cannot materialize a PMTable because
     * the NVM budget is exhausted; lets the destructor stop waiting
     * for the immutable queue to drain (the data stays durable in its
     * WAL segments and replays on the next open).
     */
    std::atomic<bool> flush_blocked_{false};
};

} // namespace mio::miodb

#endif // MIO_MIODB_MIODB_H_
