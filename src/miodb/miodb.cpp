/**
 * @file
 * MioDB's foreground half: open/close, the WAL, the group-commit
 * write path, and the read paths. Background job bodies and the
 * scheduling glue live in maintenance.cpp.
 */
#include "miodb/miodb.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "lsm/db_iterator.h"
#include "lsm/merging_iterator.h"
#include "miodb/table_probe_iterator.h"
#include "sim/failpoint.h"
#include "util/clock.h"
#include "util/coding.h"

namespace mio::miodb {

// WAL record encoding (the commit path and replayWal below):
//   kWalTagSingle  [tag][fixed64 seq][type][lp key][lp value]
//   kWalTagBatch   [tag][fixed64 first_seq][varint32 count]
//                  ([type][lp key][lp value])*
constexpr char kWalTagSingle = 1;
constexpr char kWalTagBatch = 2;

MioDB::MioDB(const MioOptions &options, sim::NvmDevice *nvm,
             sim::SsdDevice *ssd, wal::WalRegistry *wal_registry,
             std::shared_ptr<NvmState> state,
             sched::BackgroundScheduler *shared_scheduler,
             std::shared_ptr<mem::MemoryGovernor> governor,
             std::shared_ptr<mem::ReadCache> shared_cache)
    : options_(options), nvm_(nvm), ssd_(ssd)
{
    const uint64_t open_start_ns = nowNanos();
    assert(options_.elastic_levels >= 1);
    if (wal_registry != nullptr) {
        registry_ = wal_registry;
    } else {
        owned_registry_ = std::make_unique<wal::WalRegistry>();
        registry_ = owned_registry_.get();
    }

    const bool adopted = state != nullptr;
    if (adopted) {
        assert(state->levels.numLevels() == options_.elastic_levels &&
               "NVM image level count must match the options");
        state_ = std::move(state);
    } else {
        state_ = std::make_shared<NvmState>(options_.elastic_levels);
    }

    // Memory governor: adopt the facade's (sharded mode -- it runs
    // the tuner and owns the stats sink) or build a private one.
    // Every charger below -- memtable rotation, buffer-arena install
    // boundaries, value-log segments, the read cache -- reserves from
    // it instead of keeping private counters.
    if (governor != nullptr) {
        governor_ = std::move(governor);
    } else {
        mem::MemoryGovernor::Config gc;
        gc.memtable_bytes = options_.memtable_size;
        gc.read_cache_bytes = options_.read_cache_bytes;
        gc.nvm_buffer_bytes = options_.nvm_buffer_cap_bytes;
        gc.vlog_budget_bytes = options_.vlog_budget_bytes;
        gc.nvm_soft_watermark = options_.nvm_soft_watermark;
        gc.nvm_hard_watermark = options_.nvm_hard_watermark;
        gc.adaptive = options_.adaptive_memory;
        gc.dram_floor_fraction = options_.dram_floor_fraction;
        gc.tuner_interval_ms = options_.mem_tuner_interval_ms;
        governor_ = std::make_shared<mem::MemoryGovernor>(gc, &stats_);
        owns_governor_ = true;
    }
    governor_->registerMemtableCharger();
    if (shared_cache != nullptr) {
        read_cache_ = std::move(shared_cache);
    } else if (options_.read_cache_bytes > 0) {
        read_cache_ = std::make_shared<mem::ReadCache>(
            options_.read_cache_bytes, governor_, &stats_);
    }

    // The scheduler exists before the repository: in SSD mode the
    // repository's LSM submits its compactions to this shared pool,
    // and WAL replay below may rotate MemTables, which needs a live
    // flush path.
    startScheduler(shared_scheduler);

    if (state_->repo != nullptr) {
        // Adopted image: its repository must charge this instance,
        // route background work through this instance's scheduler,
        // and any machinery a SimCrash froze must restart.
        state_->repo->rebindStats(&stats_);
        state_->repo->rebindScheduler(sched_);
        state_->repo->recoverAfterCrash();
    } else {
        if (options_.use_ssd_repository) {
            assert(ssd_ != nullptr &&
                   "SSD repository mode requires an SsdDevice");
            auto ssd_medium = std::make_unique<sim::SsdMedium>(ssd_);
            if (options_.shard_tag.empty()) {
                state_->ssd_medium = std::move(ssd_medium);
            } else {
                state_->ssd_medium =
                    std::make_unique<sim::PrefixedMedium>(
                        options_.shard_tag, std::move(ssd_medium));
            }
            state_->repo = std::make_unique<SsdRepository>(
                options_.ssd_lsm, state_->ssd_medium.get(), &stats_,
                sched_);
        } else {
            state_->repo = std::make_unique<PmRepository>(nvm_, &stats_);
        }
    }

    // Key-value separation: adopt the surviving value log (pointers in
    // the adopted PMTables/SSTables must stay resolvable) or create a
    // fresh one when separation is enabled. The drop hook decays
    // segment liveness as merges discard pointer versions.
    if (state_->vlog != nullptr) {
        state_->vlog->rebind(nvm_, &stats_);
        state_->vlog->recoverAfterCrash();
    } else if (options_.value_separation_threshold > 0) {
        state_->vlog = std::make_unique<ValueLog>(
            nvm_, &stats_, options_.vlog_segment_bytes);
    }
    if (state_->vlog != nullptr) {
        // Re-pointing the governor primes kVlog with the adopted
        // segments' capacity (and releases from a previous owner).
        // Pass shared ownership: if this ctor later throws (failpoint
        // crash mid-recovery), the dtor's detach never runs, and this
        // reference is all that keeps the charged governor alive for
        // the next open's rebind to drain.
        state_->vlog->rebindGovernor(governor_);
    }
    if (state_->vlog != nullptr) {
        state_->repo->setDropNotify(
            [this](EntryType t, const Slice &v) { noteDropped(t, v); });
    }

    // NvmState outlives any single MioDB instance, so per-instance
    // plumbing must be rebound on every open (like rebindStats above):
    // retired manifests route through THIS instance's reader epoch,
    // and the summary filters follow THIS instance's bloom config.
    // bits_per_key <= 0 builds empty dummy filters, whose OR would
    // wrongly skip whole levels -- summaries stay off there.
    for (int i = 0; i < state_->levels.numLevels(); i++) {
        BufferLevel &bl = state_->levels.level(i);
        bl.setRetireCallback([this](std::shared_ptr<const void> m) {
            retireToGraveyard(std::move(m));
        });
        bl.enableBloomSummary(options_.bits_per_key > 0);
    }

    mem_ = makeMemTable(/*rng_seed=*/0x11);
    if (options_.enable_wal) {
        mem_wal_id_ = state_->next_table_id.fetch_add(1);
        first_own_wal_id_ = mem_wal_id_;
        mem_wal_ = registry_->open(walName(mem_wal_id_), nvm_);
    }

    // Fence indexes are DRAM: an adopted image keeps none of them
    // (a power failure would have lost them). Gets use the plain
    // descent until the rebuild job below republishes each table's.
    if (adopted)
        state_->levels.dropFences();

    // A SimCrash during recovery (a failpoint in the interrupted-merge
    // resume or in the WAL replay) propagates out of the constructor,
    // after the jobs this open already started are stopped.
    try {
        recover();
    } catch (const sim::SimCrash &) {
        abandonOpen();
        throw;
    }
    // Vlog GC unlocks only now: its relocations need the commit path.
    vlog_gc_enabled_.store(true, std::memory_order_release);

    if (options_.scrub_interval_ms > 0) {
        scrub_job_id_ = sched_->submitPeriodic(
            sched::JobClass::kScrub, options_.scrub_interval_ms,
            [this] {
                if (!shutting_down_.load() && !crashed_.load())
                    scrubNow();
            });
    }

    // Self-tuning memory split (standalone mode only: a shared
    // governor's facade runs one tuner over aggregated signals).
    if (owns_governor_ && options_.adaptive_memory) {
        tuner_job_id_ = sched_->submitPeriodic(
            sched::JobClass::kMemTuner, options_.mem_tuner_interval_ms,
            [this] {
                if (!shutting_down_.load() && !crashed_.load())
                    memTunerPass();
            });
    }

    // Prime the pipeline: an adopted image (or the replay) may have
    // left flushable immutables and mergeable levels behind.
    kickMaintenance();
    if (adopted) {
        // The rebuild walk is CPU-bound over every level-1 node of the
        // buffer. Starting it a moment after open keeps it off the
        // core that finishes the open and serves the first requests,
        // so recovery time never includes fence building.
        fence_rebuild_scheduled_.store(true);
        sched_->submitAfter(
            sched::JobClass::kScrub, kFenceRebuildDelayMs,
            [this] { fenceRebuildJob(); },
            [this] { fence_rebuild_scheduled_.store(false); });
    }
    stats_.recovery_ms_to_ready.store(
        (nowNanos() - open_start_ns) / 1000000, std::memory_order_relaxed);
}

void
MioDB::recover()
{
    // Interrupted compactions complete in the foreground, before any
    // reads or background jobs can observe the half-merged levels.
    recoverInterruptedCompactions();

    // Prime the buffer sub-budget with the adopted image's footprint
    // (now stable: interrupted merges are resolved, and replay below
    // charges its flushes incrementally). A fresh store charges 0.
    chargeNvmBuffer(state_->levels.totalArenaBytes());

    replayWal();
}

MioDB::~MioDB()
{
    // GC relocations write through the commit path; stop new GC
    // submissions and drain any in-flight job BEFORE the active
    // MemTable/WAL handles are torn down below. The flag flips under
    // vlog_gc_mu_, which scheduleVlogGc holds from its check to its
    // submit: a job is either visible to the wait below or never
    // submitted.
    {
        std::lock_guard<std::mutex> gl(vlog_gc_mu_);
        vlog_gc_enabled_.store(false, std::memory_order_release);
    }
    if (!crashed_.load() && state_->vlog != nullptr) {
        sched::WaitOptions wo;
        wo.kick = [this] { sched_->notifyEvent(); };
        wo.tick_ms = 2;
        sched_->waitUntil(
            [this] {
                return (!vlog_gc_scheduled_.load() &&
                        sched_->queued(sched::JobClass::kVlogGc) == 0 &&
                        sched_->running(sched::JobClass::kVlogGc) ==
                            0) ||
                       crashed_.load() || sched_->frozen();
            },
            wo);
    }
    if (!crashed_.load()) {
        // Clean shutdown: persist the active MemTable and drain.
        {
            std::lock_guard<std::mutex> wl(write_mu_);
            std::lock_guard<std::mutex> il(imm_mu_);
            if (mem_ && mem_->entryCount() > 0) {
                imms_.push_back(Immutable{mem_, mem_wal_id_});
                mem_.reset();
                mem_wal_.reset();
            }
        }
        scheduleFlush();
        // flush_blocked_: with the NVM budget exhausted the queue
        // cannot drain; stop waiting -- the data stays durable in
        // its WAL segments and replays on the next open.
        sched_->waitUntil([this] {
            std::lock_guard<std::mutex> il(imm_mu_);
            return imms_.empty() || crashed_.load() ||
                   flush_blocked_.load() || sched_->frozen();
        });
    }
    {
        // A compaction job that saw shutting_down_ clear rescheduled
        // before this, so the token wait below covers its successor.
        std::lock_guard<std::mutex> cl(compact_exit_mu_);
        shutting_down_.store(true);
    }
    sched_->notifyEvent();
    if (scrub_job_id_ != 0)
        sched_->cancelPeriodic(scrub_job_id_);
    if (tuner_job_id_ != 0)
        sched_->cancelPeriodic(tuner_job_id_);
    if (owned_sched_ != nullptr) {
        // Clean shutdown runs the already-queued jobs (flush/compaction
        // bodies see shutting_down_ and finish fast; WAL recycling runs
        // for real); after a crash everything queued is dropped.
        sched_->shutdown(/*run_pending=*/!crashed_.load());
    } else if (!crashed_.load()) {
        // Shared pool, clean close: the pool belongs to the facade and
        // other shards may still be using it, so quiesce only THIS
        // shard's streams. The tokens cover flush/compaction (queued,
        // running, or backoff-delayed -- retries fire within 10 ms,
        // see shutting_down_, and release their token without
        // resubmitting). Scrub/SSD/WAL-recycle jobs carry no token;
        // their class counters are pool-global, which over-waits but
        // terminates (none of those bodies retry-loop).
        auto idle = [this](sched::JobClass c) {
            return sched_->queued(c) == 0 && sched_->running(c) == 0;
        };
        sched::WaitOptions wo;
        // Token releases on the drop path don't bump the event
        // sequence themselves; tick so the predicate re-checks.
        wo.kick = [this] { sched_->notifyEvent(); };
        wo.tick_ms = 2;
        sched_->waitUntil(
            [&] {
                if (flush_scheduled_.load() ||
                    vlog_gc_scheduled_.load() ||
                    fence_rebuild_scheduled_.load()) {
                    return false;
                }
                for (int i = 0; i < options_.elastic_levels; i++) {
                    if (compact_scheduled_[i].load())
                        return false;
                }
                return idle(sched::JobClass::kScrub) &&
                       idle(sched::JobClass::kSsdCompaction) &&
                       idle(sched::JobClass::kWalRecycle) &&
                       idle(sched::JobClass::kVlogGc);
            },
            wo);
        // A flush job releases its token while holding imm_mu_, and a
        // compaction job ends under compact_exit_mu_; taking each lock
        // once waits out that job's last touch of this store.
        { std::lock_guard<std::mutex> il(imm_mu_); }
        std::lock_guard<std::mutex> cl(compact_exit_mu_);
    }
    // Shared pool after a crash: frozen, nothing queued (freeze
    // dropped it), and the facade joins the workers before shards are
    // destroyed -- nothing left references this instance.
    detachFromNvmState();
    // The value log survives in NvmState; this instance's governor
    // does not. Detach (releasing kVlog) before the books close.
    if (state_->vlog != nullptr)
        state_->vlog->rebindGovernor(nullptr);
    if (!crashed_.load() && options_.enable_wal && mem_wal_)
        registry_->remove(walName(mem_wal_id_));
#ifndef NDEBUG
    {
        // A snapshot outliving its store keeps the NvmState alive
        // (its pins stay safe to read), but a pin still registered
        // here is almost certainly a forgotten releaseSnapshot --
        // reclamation stayed gated for the store's whole life.
        std::lock_guard<std::mutex> sl(snap_mu_);
        assert(live_snapshots_.empty() &&
               "snapshot leak: getSnapshot without releaseSnapshot");
    }
#endif
}

std::string
MioDB::walName(uint64_t id) const
{
    char buf[32];
    snprintf(buf, sizeof(buf), "wal-%08llu",
             static_cast<unsigned long long>(id));
    return buf;
}

Status
MioDB::appendWal(uint64_t seq, EntryType type, const Slice &key,
                 const Slice &value)
{
    std::string record;
    record.push_back(kWalTagSingle);
    putFixed64(&record, seq);
    record.push_back(static_cast<char>(type));
    putLengthPrefixedSlice(&record, key);
    putLengthPrefixedSlice(&record, value);
    Status s = mem_wal_->append(Slice(record));
    if (s.isOk()) {
        stats_.wal_bytes_written.fetch_add(record.size() + 8,
                                           std::memory_order_relaxed);
    }
    return s;
}

Status
MioDB::appendWalOps(const std::vector<OpRef> &ops, size_t from,
                    uint64_t first_seq)
{
    std::string record;
    const size_t n = ops.size() - from;
    if (n == 0) {
        // A lone GC relocation whose probe lost to a user write
        // commits an empty group: nothing to log.
        return Status::ok();
    }
    if (n == 1) {
        // Singleton groups keep the compact single-op encoding.
        const OpRef &op = ops[from];
        record.reserve(op.key.size() + op.value.size() + 20);
        record.push_back(kWalTagSingle);
        putFixed64(&record, first_seq);
        record.push_back(static_cast<char>(op.type));
        putLengthPrefixedSlice(&record, op.key);
        putLengthPrefixedSlice(&record, op.value);
    } else {
        size_t payload = 16;
        for (size_t i = from; i < ops.size(); i++)
            payload += ops[i].key.size() + ops[i].value.size() + 11;
        record.reserve(payload);
        record.push_back(kWalTagBatch);
        putFixed64(&record, first_seq);
        putVarint32(&record, static_cast<uint32_t>(n));
        for (size_t i = from; i < ops.size(); i++) {
            record.push_back(static_cast<char>(ops[i].type));
            putLengthPrefixedSlice(&record, ops[i].key);
            putLengthPrefixedSlice(&record, ops[i].value);
        }
    }
    Status s = mem_wal_->append(Slice(record));
    if (s.isOk()) {
        stats_.wal_bytes_written.fetch_add(record.size() + 8,
                                           std::memory_order_relaxed);
    }
    return s;
}

void
MioDB::replayWal()
{
    auto names = registry_->list();
    std::sort(names.begin(), names.end());
    // Allocation resumes past every version the image already holds.
    uint64_t max_seq =
        std::max(seq_.load(), state_->last_sequence.load() + 1);
    std::vector<std::string> replayed;
    // Only segments from BEFORE this instance replay; the fresh
    // segments this instance itself creates (including ones minted by
    // rotations during the replay) hold the re-logged copies and must
    // be neither replayed nor removed. Ids are monotonic and names
    // zero-padded, so a string compare is an id compare.
    const std::string own_floor = walName(first_own_wal_id_);
    bool relog_failed = false;
    for (const auto &name : names) {
        if (name >= own_floor)
            continue;  // a fresh segment of this instance
        auto segment = registry_->find(name);
        if (!segment)
            continue;
        wal::LogReader reader(segment.get());
        std::string record;
        while (reader.readRecord(&record)) {
            // A crash here loses only DRAM progress: no old segment is
            // removed until the loop ends, so the next open replays
            // them all again (and skips this open's re-logged copies).
            MIO_FAILPOINT("wal.replay.frame");
            replayRecord(Slice(record), &max_seq, &relog_failed);
            stats_.wal_frames_replayed.fetch_add(
                1, std::memory_order_relaxed);
        }
        if (reader.sawCorruption()) {
            stats_.wal_corrupt_frames.fetch_add(
                1, std::memory_order_relaxed);
        }
        replayed.push_back(name);
    }
    // If a re-log was denied (NVM budget), the old segments are the
    // only durable copy of some replayed records: keep them.
    if (!relog_failed) {
        for (const auto &name : replayed)
            registry_->remove(name);
    }
    seq_.store(max_seq);
    // Everything replayed is committed by definition (max_seq is the
    // next sequence to allocate, so the watermark sits one below).
    visible_seq_.store(max_seq - 1, std::memory_order_release);
}

void
MioDB::replayRecord(const Slice &record, uint64_t *max_seq,
                    bool *relog_failed)
{
    Slice input = record;
    if (input.size() < 10)
        return;
    char tag = input[0];
    input.removePrefix(1);
    uint64_t seq = decodeFixed64(input.data());
    input.removePrefix(8);

    auto apply = [&](uint64_t op_seq, EntryType type, const Slice &key,
                     const Slice &value) {
        // Skip what the image or this replay already holds: records of
        // a flushed table whose segment outlived the flush, and the
        // copies a crashed earlier replay re-logged into segments named
        // after the originals. Applying such an older op after a newer
        // one would put it above the newer version in the read order.
        if (op_seq < *max_seq)
            return;
        // Insert first, re-log under the CURRENT segment second, so
        // the re-logged copy always lands in the segment paired with
        // the table that holds the entry. (Log-first could strand the
        // record in a segment that dies with the previous table's
        // flush when the insert triggers a rotation.)
        if (!mem_->add(key, op_seq, type, value)) {
            rotateMemTable();
            bool ok = mem_->add(key, op_seq, type, value);
            assert(ok && "replayed entry exceeds MemTable size");
            (void)ok;
        }
        if (options_.enable_wal &&
            !appendWal(op_seq, type, key, value).isOk()) {
            *relog_failed = true;
        }
        *max_seq = std::max(*max_seq, op_seq + 1);
    };

    if (tag == kWalTagSingle) {
        if (input.empty())
            return;
        auto type = static_cast<EntryType>(input[0]);
        input.removePrefix(1);
        Slice key, value;
        if (!getLengthPrefixedSlice(&input, &key) ||
            !getLengthPrefixedSlice(&input, &value)) {
            return;
        }
        apply(seq, type, key, value);
    } else if (tag == kWalTagBatch) {
        uint32_t count;
        if (!getVarint32(&input, &count))
            return;
        for (uint32_t i = 0; i < count; i++) {
            if (input.empty())
                return;
            auto type = static_cast<EntryType>(input[0]);
            input.removePrefix(1);
            Slice key, value;
            if (!getLengthPrefixedSlice(&input, &key) ||
                !getLengthPrefixedSlice(&input, &value)) {
                return;
            }
            apply(seq + i, type, key, value);
        }
    }
}

Status
MioDB::validateEntry(const Slice &key, const Slice &value) const
{
    if (key.empty())
        return Status::invalidArgument("empty key");
    // A node must fit a fresh MemTable (header + max-height links).
    size_t worst_node = sizeof(SkipList::Node) +
                        SkipList::kMaxHeight * sizeof(void *) +
                        key.size() + value.size() + 256;
    if (worst_node > options_.memtable_size)
        return Status::invalidArgument("entry exceeds MemTable size");
    return Status::ok();
}

Status
MioDB::writeImpl(Writer *w)
{
    if (crashed_.load())
        return Status::ioError("simulated crash: store is frozen");
    std::unique_lock<std::mutex> lock(write_mu_);
    if (w->relocation && !writers_.empty()) {
        // A GC relocation never parks
        // on the writer queue: a parked job pins its pool worker while
        // the queue's leader may be waiting on a flush that needs that
        // very worker -- a cycle on small pools (and a guaranteed
        // deadlock when the job runs inline on the leader's own thread
        // in deterministic mode). Contention just means "retry later".
        return Status::busy("background writer: queue busy");
    }
    writers_.push_back(w);
    while (!w->done && w != writers_.front())
        w->cv.wait(lock);
    if (w->done)
        return w->status;

    // This writer is the leader: claim followers (in queue order) up
    // to the group byte budget and reserve one contiguous sequence
    // block for every op in the group.
    std::vector<Writer *> group;
    group.push_back(w);
    size_t group_bytes = w->payload_bytes;
    uint64_t group_ops = w->op_count;
    if (options_.group_commit) {
        for (auto it = writers_.begin() + 1; it != writers_.end();
             ++it) {
            Writer *f = *it;
            if (group_bytes + f->payload_bytes >
                options_.max_group_bytes) {
                break;
            }
            group.push_back(f);
            group_bytes += f->payload_bytes;
            group_ops += f->op_count;
        }
    }
    uint64_t base_seq =
        seq_.fetch_add(group_ops, std::memory_order_relaxed);
    lock.unlock();

    // Commit outside write_mu_: leadership serializes this section
    // (only the queue front commits), and releasing the mutex lets
    // later writers enqueue meanwhile -- that window is what forms
    // the next group.
    applyBufferCap();
    Status s = applyNvmWatermarks();
    if (crashed_.load()) {
        s = Status::ioError("simulated crash: store is frozen");
    } else if (s.isOk()) {
        try {
            s = commitGroup(group, base_seq);
        } catch (const sim::SimCrash &crash) {
            // The leader hit an armed failpoint: freeze the store and
            // fail the whole group (no member may believe its op was
            // acknowledged -- recovery decides what survived).
            onSimCrash();
            s = Status::ioError(std::string("simulated crash at ") +
                                crash.point());
        }
    }

    lock.lock();
    for (Writer *member : group) {
        assert(writers_.front() == member);
        writers_.pop_front();
        if (member != w) {
            member->status = s;
            member->done = true;
            member->cv.notify_one();
        }
    }
    if (!writers_.empty())
        writers_.front()->cv.notify_one();
    return s;
}

Status
MioDB::commitGroup(const std::vector<Writer *> &group,
                   uint64_t base_seq)
{
    size_t total_ops = 0;
    for (const Writer *m : group)
        total_ops += m->op_count;
    std::vector<OpRef> ops;
    ops.reserve(total_ops);
    size_t user_bytes = 0;
    for (Writer *m : group) {
        if (m->relocation) {
            // GC relocation: apply only while the key's newest
            // committed entry still carries the pointer being
            // replaced. Leadership serializes commits, so the probe
            // below cannot race another group; an earlier op of THIS
            // group writing the same key wins instead (it is not yet
            // visible to the probe).
            bool superseded = false;
            for (const OpRef &prior : ops) {
                if (prior.key == m->key) {
                    superseded = true;
                    break;
                }
            }
            if (!superseded) {
                std::string cur;
                EntryType t = EntryType::kValue;
                bool corrupt = false;
                bool found =
                    findNewestRaw(m->key, &cur, &t, nullptr, &corrupt);
                if (corrupt) {
                    // Unknown liveness: GC must not treat the old
                    // copy as dead (and must not unlink its segment).
                    m->relocation_outcome = Status::corruption(m->key);
                    continue;
                }
                ValuePointer vp;
                superseded = !found ||
                             t != EntryType::kValuePointer ||
                             !ValuePointer::decode(Slice(cur), &vp) ||
                             vp != m->expected_ptr;
            }
            if (superseded) {
                m->relocation_outcome = Status::notFound(m->key);
                continue;  // reserved seq stays unused -- benign gap
            }
            m->relocation_outcome = Status::ok();
            ops.push_back(
                OpRef{EntryType::kValuePointer, m->key, m->value});
            // Not a user write: no user_bytes (WA stays honest).
        } else if (m->batch != nullptr) {
            for (const WriteBatch::Op &op : m->batch->ops()) {
                ops.push_back(
                    OpRef{op.type, Slice(op.key), Slice(op.value)});
            }
            user_bytes += m->batch->byteSize();
        } else {
            ops.push_back(OpRef{m->type, m->key, m->value});
            user_bytes += m->key.size() + m->value.size();
        }
    }

    // Key-value separation: large values leave the group here, before
    // the WAL record -- each is appended (and persisted) to the value
    // log once, and the index path below carries only the fixed-size
    // encoded pointer. A crash between a vlog append and the WAL
    // record leaves an orphan log record; it is never indexed, so GC
    // reclaims it as dead. The deque keeps encodings stable while the
    // MemTable inserts below alias them.
    std::deque<std::string> pointer_arena;
    if (state_->vlog != nullptr &&
        options_.value_separation_threshold > 0) {
        for (OpRef &op : ops) {
            if (op.type != EntryType::kValue ||
                op.value.size() < options_.value_separation_threshold) {
                continue;
            }
            ValuePointer vp;
            Status vs = state_->vlog->append(op.key, op.value, &vp);
            if (!vs.isOk())
                return vs;  // nothing logged/applied: clean failure
            pointer_arena.emplace_back(vp.encode());
            op.type = EntryType::kValuePointer;
            op.value = Slice(pointer_arena.back());
        }
    }

    uint64_t wal_appends = 0;
    if (options_.enable_wal) {
        // A crash before the combined record loses the WHOLE group; a
        // crash after it makes the whole group durable. Never partial.
        MIO_FAILPOINT("group.before_wal");
        Status ws = appendWalOps(ops, 0, base_seq);
        if (!ws.isOk())
            return ws;  // nothing applied: the group fails cleanly
        MIO_FAILPOINT("group.after_wal");
        wal_appends++;
    }
    for (size_t i = 0; i < ops.size(); i++) {
        const OpRef &op = ops[i];
        uint64_t seq = base_seq + i;
        // Crashing mid-apply loses only DRAM state; the WAL record
        // above already made the full group recoverable.
        MIO_FAILPOINT("group.apply_op");
        if (!mem_->add(op.key, seq, op.type, op.value)) {
            // The new MemTable's WAL segment must cover the rest of
            // the group (the old segment dies with the old table's
            // flush); replay tolerates the duplicate sequences. The
            // re-log runs inside the rotation, before the old table
            // becomes flushable, so no crash can tear the group.
            if (options_.enable_wal) {
                Status rs;
                rotateMemTable(
                    [&] { rs = appendWalOps(ops, i, seq); });
                if (!rs.isOk()) {
                    // NVM budget denied the re-log. The group prefix
                    // is applied and covered by the old segment; the
                    // remainder is applied nowhere -- report busy so
                    // every member treats the write as not committed.
                    return rs;
                }
                wal_appends++;
            } else {
                rotateMemTable();
            }
            bool ok = mem_->add(op.key, seq, op.type, op.value);
            assert(ok);
            (void)ok;
        }
    }

    // The whole group is applied: publish the committed watermark.
    // Leadership serializes commits, so this only ever moves forward;
    // release pairs with getSnapshot's acquire -- a snapshot whose
    // bound covers these sequences also sees their MemTable inserts.
    visible_seq_.store(base_seq + total_ops - 1,
                       std::memory_order_release);

    stats_.user_bytes_written.fetch_add(user_bytes,
                                        std::memory_order_relaxed);
    stats_.groups_committed.fetch_add(1, std::memory_order_relaxed);
    stats_.group_writers.fetch_add(group.size(),
                                   std::memory_order_relaxed);
    if (options_.enable_wal && group.size() > wal_appends) {
        stats_.wal_appends_saved.fetch_add(group.size() - wal_appends,
                                           std::memory_order_relaxed);
    }
    stats_
        .group_size_hist[StatsCounters::groupSizeBucket(group.size())]
        .fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
}

void
MioDB::rotateMemTable(const std::function<void()> &relog)
{
    // Caller is the commit leader (or otherwise exclusive), so mem_
    // and the WAL handle can be swapped without write_mu_.
    std::unique_lock<std::mutex> il(imm_mu_);
    const std::shared_ptr<lsm::MemTable> old_mem = mem_;
    const uint64_t old_wal_id = mem_wal_id_;
    if (options_.enable_wal) {
        mem_wal_id_ = state_->next_table_id.fetch_add(1);
        mem_wal_ = registry_->open(walName(mem_wal_id_), nvm_);
    }
    // Re-log BEFORE the old table enters imms_: once it is there the
    // flusher may flush it and remove the old segment, and a crash
    // between that removal and the re-logged copy landing would tear
    // the group (prefix flushed, remainder nowhere).
    if (relog)
        relog();
    imms_.push_back(Immutable{old_mem, old_wal_id});
    const bool backlogged = static_cast<int>(imms_.size()) >
                            options_.max_immutable_memtables;
    // The wait below runs without imm_mu_ (the flush job needs it; in
    // deterministic mode the flush even runs inline on THIS thread).
    // mem_ still pointing at old_mem meanwhile is benign: leadership
    // is exclusive, and a reader that captures both mem_ and the
    // queued copy merely probes the same (live) table twice.
    il.unlock();
    scheduleFlush();
    // One-piece flushing is fast, but if the flusher falls behind the
    // writer must wait: this is the only stall MioDB can experience
    // (an interval stall in the paper's terminology).
    // A rotation driven by a job's own write (vlog GC relocation) in
    // deterministic mode cannot wait on the flush: nested waitUntil
    // on a job thread never assist-runs, so the backlog would not
    // drain. Proceed over the limit; the next user group absorbs it.
    const bool can_wait =
        !(sched_->deterministic() &&
          sched::BackgroundScheduler::inJob());
    if (backlogged && can_wait) {
        ScopedTimer stall(&stats_.interval_stall_ns);
        // flush_blocked_ escape: a flusher parked on NVM allocation
        // failure cannot drain the backlog, so waiting would deadlock
        // this (already half-committed) rotation. Proceed one table
        // over the limit; applyNvmWatermarks gates the NEXT group with
        // bounded-stall-then-busy while the flusher stays wedged.
        // sched_->frozen(): in shared-pool mode a sibling shard's
        // power failure freezes the pool before the facade marks this
        // shard crashed; the dropped flush could never drain the
        // backlog, so waiting on it would hang this rotation.
        sched_->waitUntil([this] {
            std::lock_guard<std::mutex> l(imm_mu_);
            return static_cast<int>(imms_.size()) <=
                       options_.max_immutable_memtables ||
                   shutting_down_.load() || crashed_.load() ||
                   flush_blocked_.load() || sched_->frozen();
        });
    }
    il.lock();
    mem_ = makeMemTable(
        /*rng_seed=*/state_->next_table_id.load() * 7 + 1);
    il.unlock();
    // The old segment still holds the rotated MemTable's records (it
    // is only removed after the flush lands), so a crash here simply
    // replays from both segments.
    MIO_FAILPOINT("wal.rotate.after_open");
}

std::shared_ptr<lsm::MemTable>
MioDB::makeMemTable(uint64_t seed)
{
    size_t cap = options_.memtable_size;
    if (options_.adaptive_memory)
        cap = governor_->memtableTargetBytes();
    // The deleter owns a governor reference: pinned snapshots can keep
    // a MemTable alive past this store object, and the charge must
    // follow the arena's actual lifetime, not the store's.
    auto gov = governor_;
    gov->charge(mem::SubBudget::kMemtableDram, cap);
    return std::shared_ptr<lsm::MemTable>(
        new lsm::MemTable(cap, seed), [gov, cap](lsm::MemTable *p) {
            delete p;
            gov->release(mem::SubBudget::kMemtableDram, cap);
        });
}

void
MioDB::chargeNvmBuffer(size_t bytes)
{
    if (bytes == 0)
        return;
    nvm_buffer_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    governor_->charge(mem::SubBudget::kNvmBuffer, bytes);
}

void
MioDB::releaseNvmBuffer(size_t bytes)
{
    if (bytes == 0)
        return;
    nvm_buffer_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    governor_->release(mem::SubBudget::kNvmBuffer, bytes);
}

Status
MioDB::put(const Slice &key, const Slice &value)
{
    Status valid = validateEntry(key, value);
    if (!valid.isOk())
        return valid;
    stats_.puts.fetch_add(1, std::memory_order_relaxed);
    Writer w;
    w.key = key;
    w.value = value;
    w.type = EntryType::kValue;
    w.payload_bytes = key.size() + value.size() + 16;
    return writeImpl(&w);
}

Status
MioDB::remove(const Slice &key)
{
    Status valid = validateEntry(key, Slice());
    if (!valid.isOk())
        return valid;
    stats_.deletes.fetch_add(1, std::memory_order_relaxed);
    Writer w;
    w.key = key;
    w.type = EntryType::kDeletion;
    w.payload_bytes = key.size() + 16;
    return writeImpl(&w);
}

bool
MioDB::probeTable(const PMTable &table, const FenceIndex *fence,
                  const Slice &key, std::string *value, EntryType *type,
                  uint64_t *seq, bool verify, bool *corrupt)
{
    // Both paths walk NVM-resident nodes: charge one media read per
    // node they dereference.
    if (fence == nullptr) {
        nvm_->chargeRandomReads(
            sim::skipDescentDepth(table.entryCount()));
        return table.list().get(key, value, type, seq, verify, corrupt);
    }
    int hops = 0;
    const bool found = table.list().getFrom(
        fence->floor(key), key, value, type, seq, verify, corrupt, &hops);
    nvm_->chargeRandomReads(hops);
    stats_.fence_probes.fetch_add(1, std::memory_order_relaxed);
    stats_.fence_walk_nodes.fetch_add(hops, std::memory_order_relaxed);
    return found;
}

bool
MioDB::probeLevelManifest(const LevelManifest &m, const Slice &key,
                          uint64_t h1, uint64_t h2, std::string *value,
                          EntryType *type, uint64_t *seq,
                          bool use_bloom, bool *corrupt)
{
    if (!m.hasMembers())
        return false;
    const bool verify = options_.verify_read_checksums;
    if (m.summary != nullptr && !m.summary->mayContainHashes(h1, h2)) {
        // One probe proved the key is in no member table of this
        // level (OR-merged bits are a superset of every member's).
        stats_.bloom_summary_skips.fetch_add(1,
                                             std::memory_order_relaxed);
        return false;
    }
    for (const auto &ref : m.tables) {
        if (!ref.coversKey(key))
            continue;
        if (use_bloom && !ref.bloom->mayContainHashes(h1, h2)) {
            stats_.bloom_filter_skips.fetch_add(
                1, std::memory_order_relaxed);
            continue;
        }
        // A quarantined table that could hold the key poisons the
        // whole lookup: falling through to an older level would serve
        // a stale value as if it were current.
        if (ref.table->isQuarantined()) {
            *corrupt = true;
            return false;
        }
        if (probeTable(*ref.table, ref.fence.get(), key, value, type,
                       seq, verify, corrupt)) {
            return true;
        }
        if (*corrupt)
            return false;
    }
    if (m.merge && m.merge->coversKey(key)) {
        bool may = !use_bloom ||
                   m.merge_newt_bloom->mayContainHashes(h1, h2) ||
                   m.merge_oldt_bloom->mayContainHashes(h1, h2);
        if (may) {
            if (m.merge->newt->isQuarantined() ||
                m.merge->oldt->isQuarantined()) {
                *corrupt = true;
                return false;
            }
            nvm_->chargeRandomReads(sim::skipDescentDepth(
                m.merge->newt->entryCount() +
                m.merge->oldt->entryCount()));
            if (mergeAwareGet(m.merge.get(), key, value, type, seq,
                              verify, corrupt)) {
                return true;
            }
            if (*corrupt)
                return false;
        } else {
            stats_.bloom_filter_skips.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
    if (m.migrating && Slice(m.migrating_min).compare(key) <= 0 &&
        key.compare(Slice(m.migrating_max)) <= 0) {
        if (!use_bloom || m.migrating_bloom->mayContainHashes(h1, h2)) {
            if (m.migrating->isQuarantined()) {
                *corrupt = true;
                return false;
            }
            if (probeTable(*m.migrating, m.migrating_fence.get(), key,
                           value, type, seq, verify, corrupt)) {
                return true;
            }
            if (*corrupt)
                return false;
        } else {
            stats_.bloom_filter_skips.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
    return false;
}

bool
MioDB::lookupBufferAndRepo(const Slice &key, std::string *value,
                           EntryType *type, uint64_t *seq,
                           bool *corrupt)
{
    const bool use_bloom = options_.bits_per_key > 0;
    // Hash once; every filter probe on this path reuses the pair.
    const auto [h1, h2] = BloomFilter::keyHashes(key);
    for (int i = 0; i < state_->levels.numLevels(); i++) {
        const BufferLevel &bl = state_->levels.level(i);
        const LevelManifest *m = bl.acquireManifest();
        if (manifest_probe_hook_)
            manifest_probe_hook_(i);
        while (true) {
            const bool hit = probeLevelManifest(*m, key, h1, h2, value,
                                                type, seq, use_bloom,
                                                corrupt);
            if (*corrupt)
                return false;  // never descend past damage
            // An answer is conclusive only if the manifest did not
            // change underneath the probe: a concurrent merge claim
            // can move a node out of a table after we searched it (and
            // captured filters and fences go stale the same way). A
            // miss would then skip the moved node; a hit can be worse
            // -- with the newest version detached into the insertion
            // mark, a probe through the pre-merge manifest misses the
            // newtable and finds an OLDER version in the oldtable.
            // Publication happens before any node moves, so rechecking
            // the pointer after the probe catches every such race.
            const LevelManifest *now = bl.acquireManifest();
            if (now == m) {
                if (hit)
                    return true;
                break;
            }
            m = now;
            stats_.read_retries.fetch_add(1, std::memory_order_relaxed);
        }
    }
    return state_->repo->get(key, value, type, seq,
                             options_.verify_read_checksums, corrupt);
}

bool
MioDB::findNewestRaw(const Slice &key, std::string *value,
                     EntryType *type, uint64_t *seq, bool *corrupt,
                     CacheProbe *probe)
{
    ReadGuard guard(this);
    std::shared_ptr<lsm::MemTable> mem;
    std::vector<std::shared_ptr<lsm::MemTable>> imms;
    {
        std::lock_guard<std::mutex> il(imm_mu_);
        mem = mem_;
        imms.reserve(imms_.size());
        for (auto it = imms_.rbegin(); it != imms_.rend(); ++it)
            imms.push_back(it->mem);
    }
    if (mem && mem->get(key, value, type, seq))
        return true;
    for (const auto &imm : imms) {
        if (imm->get(key, value, type, seq))
            return true;
    }
    // Cache probe sits BETWEEN the DRAM write path and the buffer
    // descent: everything newer than the cached copy is either in the
    // tables probed above (miss here is authoritative for them) or
    // was installed by a flush -- whose invalidation walk runs before
    // its immutable leaves the read path, so it either bumped the
    // epoch we capture here or its table was still probed above.
    if (probe != nullptr && read_cache_ != nullptr) {
        if (read_cache_->lookup(key, value, &probe->epoch)) {
            probe->hit = true;
            *type = EntryType::kValue;
            return true;
        }
        probe->fillable = true;
    }
    return lookupBufferAndRepo(key, value, type, seq, corrupt);
}

Status
MioDB::get(const Slice &key, std::string *value)
{
    stats_.gets.fetch_add(1, std::memory_order_relaxed);
    // The bounded retry covers one narrow race: a GC unlink can
    // retire a value-log segment between the index lookup and the
    // dereference. Relocations commit before their segment is
    // unlinked, so the re-run lookup always finds the moved pointer.
    for (int attempt = 0; attempt < 3; attempt++) {
        EntryType type = EntryType::kValue;
        bool corrupt = false;
        CacheProbe probe;
        bool found =
            findNewestRaw(key, value, &type, nullptr, &corrupt, &probe);
        if (corrupt) {
            stats_.corruptions_detected.fetch_add(
                1, std::memory_order_relaxed);
            return Status::corruption(key);
        }
        if (!found || type == EntryType::kDeletion)
            return Status::notFound(key);
        if (type != EntryType::kValuePointer) {
            // Fill only below-DRAM results (probe.fillable means the
            // MemTables missed), never a value the cache answered.
            if (probe.fillable && !probe.hit && read_cache_ != nullptr)
                read_cache_->insert(key, Slice(*value), probe.epoch);
            return Status::ok();
        }

        ValuePointer vp;
        if (state_->vlog == nullptr ||
            !ValuePointer::decode(Slice(*value), &vp)) {
            stats_.corruptions_detected.fetch_add(
                1, std::memory_order_relaxed);
            return Status::corruption(key);
        }
        Status vs = state_->vlog->read(key, vp, value);
        if (vs.isOk()) {
            // Cache the MATERIALIZED value: a hit skips the whole
            // descent and the pointer dereference.
            if (probe.fillable && read_cache_ != nullptr)
                read_cache_->insert(key, Slice(*value), probe.epoch);
            return vs;
        }
        if (vs.isCorruption()) {
            stats_.corruptions_detected.fetch_add(
                1, std::memory_order_relaxed);
            return vs;
        }
        stats_.read_retries.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::ioError("value-log dereference retry limit");
}

Status
MioDB::scan(const Slice &start_key, int count,
            std::vector<std::pair<std::string, std::string>> *out)
{
    // A live scan is a scan against a view pinned right now: pin,
    // iterate, release. The pin is what lets merges/flushes proceed
    // at full speed underneath without ever yanking a table (or a
    // repository file) out from under the cursor.
    Snapshot *snap = getSnapshot();
    Status s = scanAt(snap, start_key, count, out);
    releaseSnapshot(snap);
    return s;
}

Snapshot *
MioDB::getSnapshot()
{
    auto *snap = new MioSnapshot();
    snap->state = state_;
    {
        // Register the bound BEFORE pinning any source: a merge whose
        // keep_seq capture happens after this sees the bound and
        // retains every version the snapshot can reach. Merges that
        // captured earlier are covered by the visible_seq_ cap in
        // oldestSnapshotSeq -- they drop a version only under a
        // shadow that was already committed, hence <= our bound.
        std::lock_guard<std::mutex> sl(snap_mu_);
        snap->bound = visible_seq_.load(std::memory_order_acquire);
        snap_bounds_.insert(snap->bound);
        live_snapshots_.insert(snap);
    }
    {
        std::lock_guard<std::mutex> il(imm_mu_);
        if (mem_)
            snap->mems.push_back(mem_);
        for (auto it = imms_.rbegin(); it != imms_.rend(); ++it)
            snap->mems.push_back(it->mem);
    }
    // Top-down: data only ever flows downward (flush to L0, merges
    // toward the last level, migration into the repository), so an
    // entry that moves mid-capture is seen by a lower pin; the probe
    // chain and user-key dedup collapse any duplicate sighting.
    snap->manifests.reserve(state_->levels.numLevels());
    for (int i = 0; i < state_->levels.numLevels(); i++) {
        snap->manifests.push_back(
            state_->levels.level(i).manifestSnapshot());
    }
    snap->repo_pin = state_->repo->pinVersion();

    stats_.snapshots_live.fetch_add(1, std::memory_order_relaxed);
    stats_.snapshots_pinned_manifests.fetch_add(
        snap->manifests.size(), std::memory_order_relaxed);
    return snap;
}

void
MioDB::releaseSnapshot(Snapshot *snapshot)
{
    if (snapshot == nullptr)
        return;
    auto *snap = static_cast<MioSnapshot *>(snapshot);
    {
        std::lock_guard<std::mutex> sl(snap_mu_);
        auto it = live_snapshots_.find(snap);
        assert(it != live_snapshots_.end() &&
               "releaseSnapshot: not a live snapshot of this store "
               "(double release?)");
        if (it == live_snapshots_.end())
            return;  // double release: leak rather than corrupt
        live_snapshots_.erase(it);
        snap_bounds_.erase(snap_bounds_.find(snap->bound));
    }
    stats_.snapshots_live.fetch_sub(1, std::memory_order_relaxed);
    stats_.snapshots_pinned_manifests.fetch_sub(
        snap->manifests.size(), std::memory_order_relaxed);
    delete snap;
    // The released bound may have been the one gating a value-log
    // segment unlink; let GC re-check its pending retirements.
    bool unlinks_pending = false;
    {
        std::lock_guard<std::mutex> gl(vlog_gc_mu_);
        unlinks_pending = !vlog_pending_unlinks_.empty();
    }
    if (unlinks_pending)
        scheduleVlogGc();
}

uint64_t
MioDB::oldestSnapshotSeq() const
{
    // Capped by the committed watermark even with no snapshot live:
    // a version shadowed only by an uncommitted write must survive,
    // because a snapshot registered after this capture could carry a
    // bound below that shadow (the write may even fail and vanish).
    uint64_t keep = visible_seq_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> sl(snap_mu_);
    if (!snap_bounds_.empty())
        keep = std::min(keep, *snap_bounds_.begin());
    return keep;
}

Status
MioDB::scanAt(const Snapshot *snapshot, const Slice &start_key,
              int count,
              std::vector<std::pair<std::string, std::string>> *out)
{
    stats_.scans.fetch_add(1, std::memory_order_relaxed);
    out->clear();
    if (count <= 0)
        return Status::ok();
    if (snapshot == nullptr)
        return scan(start_key, count, out);
    const auto *snap = static_cast<const MioSnapshot *>(snapshot);
    const bool verify = options_.verify_read_checksums;

    // Children ordered newest source first (MergingIterator resolves
    // internal-key ties in child order): MemTables, buffer levels top
    // to bottom -- resident tables newest first, then the in-flight
    // merge pair and the migrating table -- and the repository last.
    // TableProbeIterator keeps each pinned table's cursor correct
    // while zero-copy merges relink its nodes (the merge pair's
    // insertion mark is covered by the newtable's probe chain).
    std::vector<std::unique_ptr<lsm::KVIterator>> children;
    size_t child_count = snap->mems.size() + 1;
    for (const auto &m : snap->manifests) {
        child_count += m->tables.size() + (m->merge ? 2 : 0) +
                       (m->migrating ? 1 : 0);
    }
    children.reserve(child_count);
    for (const auto &mem : snap->mems) {
        children.push_back(std::make_unique<lsm::SkipListIterator>(
            &mem->list(), verify));
    }
    for (const auto &m : snap->manifests) {
        for (const auto &ref : m->tables) {
            children.push_back(
                std::make_unique<TableProbeIterator>(ref.table,
                                                     verify));
        }
        if (m->merge) {
            children.push_back(std::make_unique<TableProbeIterator>(
                m->merge->newt, verify));
            children.push_back(std::make_unique<TableProbeIterator>(
                m->merge->oldt, verify));
        }
        if (m->migrating) {
            children.push_back(std::make_unique<TableProbeIterator>(
                m->migrating, verify));
        }
    }
    children.push_back(
        state_->repo->newSnapshotIterator(snap->repo_pin, verify));

    // A table quarantined after capture may be serving the snapshot
    // damaged bytes (per-entry checksums catch most, but quarantine
    // also covers structural damage): any key its range covers must
    // answer corruption, never fall through to a stale version below.
    auto corrupt_probe = [snap, this](const Slice &user_key) {
        for (const auto &m : snap->manifests) {
            for (const auto &ref : m->tables) {
                if (ref.table->isQuarantined() &&
                    ref.coversKey(user_key)) {
                    return true;
                }
            }
            if (m->merge && m->merge->coversKey(user_key) &&
                (m->merge->newt->isQuarantined() ||
                 m->merge->oldt->isQuarantined())) {
                return true;
            }
            if (m->migrating && m->migrating->isQuarantined() &&
                Slice(m->migrating_min).compare(user_key) <= 0 &&
                user_key.compare(Slice(m->migrating_max)) <= 0) {
                return true;
            }
        }
        return state_->repo->snapshotCorrupt(snap->repo_pin,
                                             user_key);
    };

    lsm::DBIterator iter(std::make_unique<lsm::MergingIterator>(
                             std::move(children)),
                         snap->bound, corrupt_probe);
    for (iter.seek(start_key); iter.valid() &&
                               static_cast<int>(out->size()) < count;
         iter.next()) {
        std::string val = iter.value().toString();
        if (iter.entryType() == EntryType::kValuePointer) {
            // Lazy pointer resolution. The snapshot's bound gates GC
            // segment unlinks (oldestSnapshotSeq), so every pointer
            // this view can surface stays resolvable until release --
            // a failure here is real damage, not a race.
            ValuePointer vp;
            Status vs =
                (state_->vlog != nullptr &&
                 ValuePointer::decode(Slice(val), &vp))
                    ? state_->vlog->read(iter.key(), vp, &val)
                    : Status::corruption(iter.key());
            if (!vs.isOk()) {
                stats_.corruptions_detected.fetch_add(
                    1, std::memory_order_relaxed);
                return vs.isCorruption()
                           ? vs
                           : Status::corruption(iter.key());
            }
        }
        out->emplace_back(iter.key().toString(), std::move(val));
    }
    if (!iter.status().isOk()) {
        stats_.corruptions_detected.fetch_add(
            1, std::memory_order_relaxed);
        return iter.status();
    }
    return Status::ok();
}

Status
MioDB::write(const WriteBatch &batch)
{
    if (batch.empty())
        return Status::ok();
    for (const auto &op : batch.ops()) {
        Status valid = validateEntry(Slice(op.key), Slice(op.value));
        if (!valid.isOk())
            return valid;
        if (op.type == EntryType::kValue)
            stats_.puts.fetch_add(1, std::memory_order_relaxed);
        else
            stats_.deletes.fetch_add(1, std::memory_order_relaxed);
    }

    Writer w;
    w.batch = &batch;
    w.op_count = batch.count();
    w.payload_bytes = batch.byteSize() + batch.count() * 11 + 16;
    return writeImpl(&w);
}

std::string
MioDB::debugString()
{
    std::string out = name() + " state:\n";
    char line[256];
    {
        std::lock_guard<std::mutex> il(imm_mu_);
        snprintf(line, sizeof(line),
                 "  memtable: %llu entries (%zu/%zu bytes), %zu "
                 "immutable\n",
                 static_cast<unsigned long long>(
                     mem_ ? mem_->entryCount() : 0),
                 mem_ ? mem_->memoryUsed() : 0,
                 mem_ ? mem_->capacity() : 0, imms_.size());
        out += line;
    }
    for (int i = 0; i < state_->levels.numLevels(); i++) {
        auto snap = state_->levels.level(i).snapshot();
        uint64_t entries = 0;
        for (const auto &t : snap.tables)
            entries += t->entryCount();
        snprintf(line, sizeof(line),
                 "  L%-2d: %zu tables, %llu entries%s%s\n", i,
                 snap.tables.size(),
                 static_cast<unsigned long long>(entries),
                 snap.merge ? ", merge in flight" : "",
                 snap.migrating ? ", migrating" : "");
        out += line;
    }
    snprintf(line, sizeof(line),
             "  repository: %llu entries\n  %s\n",
             static_cast<unsigned long long>(
                 state_->repo->entryCount()),
             snapshotOf(stats_).toString().c_str());
    out += line;
    return out;
}

} // namespace mio::miodb
