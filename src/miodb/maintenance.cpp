/**
 * @file
 * MioDB's background maintenance half: every job body (flush,
 * zero-copy merges, lazy-copy migration, WAL recycling, scrubbing),
 * the scheduling glue that keeps the unified BackgroundScheduler
 * primed, and the backpressure/wait paths that park on it. The
 * API/read/write paths live in miodb.cpp.
 *
 * Scheduling invariant: at most one flush job and one compaction job
 * per level is ever queued or running, enforced by the "scheduled"
 * tokens. Each job drains its work stream in a loop, releases its
 * token, and then re-checks for work that arrived during the release
 * window -- so no wakeup is ever lost and no stream ever runs
 * concurrently with itself (the old dedicated-thread serialization,
 * kept under a shared pool).
 */
#include "miodb/miodb.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "miodb/one_piece_flush.h"
#include "sim/failpoint.h"
#include "util/clock.h"

namespace mio::miodb {

int
MioDB::backgroundWorkerCount() const
{
    if (options_.deterministic_background)
        return 0;
    if (options_.background_workers > 0)
        return options_.background_workers;
    // Auto: mirror the old dedicated-thread census -- one flusher,
    // one compactor per level (or one total), a scrubber slot when
    // periodic scrubbing is on, plus the SSD tier's compaction pool
    // in hierarchy mode.
    int n = 1;
    if (options_.auto_compaction) {
        n += options_.parallel_compaction ? options_.elastic_levels
                                          : 1;
    }
    if (options_.scrub_interval_ms > 0)
        n += 1;
    if (options_.use_ssd_repository)
        n += std::max(1, options_.ssd_lsm.compaction_threads);
    // A vlog GC relocation commit can park its worker briefly on a
    // memtable rotation; keep a slot of headroom so the flush that
    // rotation waits for always finds a free worker.
    if (options_.value_separation_threshold > 0)
        n += 1;
    // The kMemTuner pass is cheap but periodic; a dedicated slot keeps
    // its cadence steady when every other worker is busy compacting.
    if (options_.adaptive_memory)
        n += 1;
    return n;
}

void
MioDB::startScheduler(sched::BackgroundScheduler *shared)
{
    if (shared != nullptr) {
        // Facade-owned pool: the worker census, stats sink, crash
        // callback, and urgency probes belong to the owner (only one
        // probe per class exists pool-wide, and it must aggregate
        // across every shard, not capture whichever shard bound last).
        sched_ = shared;
    } else {
        sched::BackgroundScheduler::Options so;
        so.deterministic = options_.deterministic_background;
        so.num_workers = backgroundWorkerCount();
        so.stats = &stats_;
        so.on_crash = [this] { onSimCrash(); };
        owned_sched_ = std::make_unique<sched::BackgroundScheduler>(so);
        sched_ = owned_sched_.get();
        // Memory pressure escalates the merge classes ahead of
        // everything else: movement toward the repository is what
        // actually frees NVM bytes (and shrinks the elastic buffer
        // under its cap).
        auto pressed = [this] { return underMemoryPressure(); };
        sched_->setUrgencyProbe(sched::JobClass::kLazyCopyMerge,
                                pressed);
        sched_->setUrgencyProbe(sched::JobClass::kZeroCopyMerge,
                                pressed);
    }
    compact_scheduled_ =
        std::make_unique<std::atomic<bool>[]>(options_.elastic_levels);
    for (int i = 0; i < options_.elastic_levels; i++)
        compact_scheduled_[i].store(false);
}

bool
MioDB::underMemoryPressure() const
{
    // The governor's kNvmBuffer mirror instead of walking every
    // level: this probe runs at every dispatch (urgency) and on the
    // write path, and the mirror is exact at install boundaries --
    // precise enough for a pressure threshold.
    return nvmOverSoftWatermark() ||
           (options_.nvm_buffer_cap_bytes != 0 &&
            nvmBufferCharged() > options_.nvm_buffer_cap_bytes);
}

void
MioDB::scheduleFlush()
{
    if (sched_ == nullptr || crashed_.load())
        return;
    if (flush_scheduled_.exchange(true))
        return;  // the queued/running flush job will observe the work
    sched_->submit(
        sched::JobClass::kFlush, [this] { flushJob(); },
        [this] { flush_scheduled_.store(false); });
}

void
MioDB::flushJob()
{
    sched::BackgroundScheduler *sched = sched_;
    while (true) {
        Immutable imm;
        {
            std::lock_guard<std::mutex> il(imm_mu_);
            if (imms_.empty() || shutting_down_.load() ||
                crashed_.load()) {
                // Release the token under imm_mu_: an imm pushed
                // before this check was drained above, and one pushed
                // after it finds the token free and schedules its own
                // job. The release is this job's last touch of the
                // store: a closing store waits for the token, then
                // for imm_mu_, and may be destroyed once both are
                // free.
                flush_scheduled_.store(false);
                break;
            }
            imm = imms_.front();
        }
        uint64_t table_id = state_->next_table_id.fetch_add(1);
        std::shared_ptr<PMTable> table;
        if (options_.one_piece_flush) {
            table = onePieceFlush(imm.mem.get(), nvm_, &stats_,
                                  options_.bits_per_key, table_id);
        } else {
            table = nodeByNodeFlush(imm.mem.get(), nvm_, &stats_,
                                    options_.bits_per_key, table_id);
        }
        if (table == nullptr) {
            // NVM budget exhausted: leave the imm queued (its WAL
            // segment keeps it durable), nudge migration to free
            // space, and retry after a short backoff. The retry keeps
            // the flush token so no duplicate flush job can appear;
            // its on_drop releases the token if a freeze/shutdown
            // discards the retry.
            flush_blocked_.store(true);
            sched_->notifyEvent();
            kickCompaction();
            sched_->submitAfter(
                sched::JobClass::kFlush, 10, [this] { flushJob(); },
                [this] {
                    flush_scheduled_.store(false);
                    sched_->notifyEvent();
                });
            return;
        }
        flush_blocked_.store(false);
        ensureFence(table.get());
        stats_.flush_count.fetch_add(1, std::memory_order_relaxed);
        // A crash before the push loses the PMTable image but the WAL
        // segment survives (it is recycled only after the push);
        // after the push, replay skips the segment's records by
        // sequence (see NvmState::last_sequence).
        MIO_FAILPOINT("flush.before_publish");
        const size_t table_bytes = table->arenaBytes();
        state_->levels.level(0).push(std::move(table));
        // Only after the publish: from here a reopen skips the imm's
        // records (FIFO flushes keep every lower sequence published;
        // this job is the only writer).
        if (imm.mem->maxSequence() > state_->last_sequence.load())
            state_->last_sequence.store(imm.mem->maxSequence());
        MIO_FAILPOINT("flush.after_publish");
        chargeNvmBuffer(table_bytes);
        assert(governor_->chargesConsistent());
        // Invalidate cached entries the flushed table shadows, after
        // the L0 publish and before the imm leaves the queue: until
        // the pop every read still stops at the imm (never probing the
        // cache), and after the invalidation a re-fill reads through
        // the published L0 table. No window serves the stale value.
        invalidateCacheFor(*imm.mem);
        {
            std::lock_guard<std::mutex> il(imm_mu_);
            if (!imms_.empty())
                imms_.pop_front();
        }
        if (options_.enable_wal)
            scheduleWalRecycle(imm.wal_id);
        sched_->notifyEvent();
        notifyCapWaiters();
        scheduleCompaction(0);
    }
    sched->notifyEvent();
}

void
MioDB::scheduleWalRecycle(uint64_t wal_id)
{
    // Dropping the job on a crash-freeze is safe: replaying a flushed
    // segment skips every record by sequence (see replayRecord) --
    // the exact crash window between flush.after_publish and the old
    // synchronous removal, now widened to "until the job runs".
    // Captures are by value (registry outlives the store in every
    // external-registry configuration) so a shared-pool straggler that
    // outruns this instance's destructor touches nothing of `this`.
    wal::WalRegistry *registry = registry_;
    std::string name = walName(wal_id);
    sched_->submit(sched::JobClass::kWalRecycle,
                   [registry, name] { registry->remove(name); });
}

void
MioDB::scheduleCompaction(int level)
{
    if (sched_ == nullptr || crashed_.load())
        return;
    if (!options_.auto_compaction || level < 0 ||
        level >= options_.elastic_levels) {
        return;
    }
    if (compact_scheduled_[level].exchange(true))
        return;
    const sched::JobClass cls =
        (level == options_.elastic_levels - 1)
            ? sched::JobClass::kLazyCopyMerge
            : sched::JobClass::kZeroCopyMerge;
    sched_->submit(
        cls, [this, level] { compactionJob(level); },
        [this, level] { compact_scheduled_[level].store(false); });
}

void
MioDB::compactionJob(int level)
{
    const sched::JobClass cls =
        (level == options_.elastic_levels - 1)
            ? sched::JobClass::kLazyCopyMerge
            : sched::JobClass::kZeroCopyMerge;
    while (!shutting_down_.load() && !crashed_.load()) {
        CompactResult r = compactLevelOnce(level);
        if (r == CompactResult::kWorked) {
            notifyCapWaiters();
            sched_->notifyEvent();
            // The merge/migration output landed one level down; keep
            // the cascade moving without waiting for a kick.
            scheduleCompaction(level + 1);
            continue;
        }
        if (r == CompactResult::kRetryLater) {
            // Transient denial (NVM budget, SSD I/O): back off. The
            // retry keeps this level's token; its on_drop releases it
            // if a freeze/shutdown discards the retry.
            sched_->submitAfter(
                cls, 10, [this, level] { compactionJob(level); },
                [this, level] {
                    compact_scheduled_[level].store(false);
                    sched_->notifyEvent();
                });
            return;
        }
        break;  // kNoWork
    }
    // The token release is not this job's last touch of the store, so
    // a closing store, which sets shutting_down_ under this lock and
    // takes it again once the tokens are free, waits the rest out.
    std::lock_guard<std::mutex> exit_lock(compact_exit_mu_);
    compact_scheduled_[level].store(false);
    sched_->notifyEvent();
    // Close the submit/observe race: a push that raced the final
    // no-work check reschedules here.
    if (!shutting_down_.load() && !crashed_.load() &&
        levelHasWork(level)) {
        scheduleCompaction(level);
    }
}

MioDB::CompactResult
MioDB::compactLevelOnce(int level)
{
    BufferLevel &bl = state_->levels.level(level);
    const bool is_last = (level == options_.elastic_levels - 1);
    // Version-reclamation bound, captured once per attempt. A
    // snapshot registered after this capture is still safe: its bound
    // is at least the committed watermark of this instant, so every
    // shadow this merge drops under is visible to it too.
    const uint64_t keep_seq = oldestSnapshotSeq();

    if (is_last) {
        std::shared_ptr<PMTable> victim = bl.beginMigration();
        if (!victim) {
            // A previous round's migration may have failed after its
            // table moved to the migrating slot; this level's single
            // compaction job retries it here (mergeTable is
            // idempotent per key/sequence, the same property recovery
            // relies on).
            victim = bl.migratingTable();
        }
        if (!victim)
            return CompactResult::kNoWork;
        // The migrating table stays readable in the level until
        // finishMigration; a crash anywhere in this window re-runs
        // the (idempotent) migration on reopen.
        MIO_FAILPOINT("lcm.before_publish");
        Status ms = state_->repo->mergeTable(victim.get(), keep_seq);
        if (!ms.isOk()) {
            // Transient failure (SSD I/O error, NVM budget): leave
            // the migration in flight and retry after a backoff.
            return CompactResult::kRetryLater;
        }
        MIO_FAILPOINT("lcm.after_publish");
        bl.finishMigration();
        MIO_FAILPOINT("lcm.before_reclaim");
        // Reclaim the whole arena chain (the lazy memory-freeing step
        // of Sec. 4.4) -- deferred past any in-flight readers.
        const size_t victim_bytes = victim->arenaBytes();
        retireTable(std::move(victim));
        releaseNvmBuffer(victim_bytes);
        assert(governor_->chargesConsistent());
        return CompactResult::kWorked;
    }

    std::shared_ptr<MergeOp> op = bl.beginMerge();
    if (!op) {
        // Under buffer-cap pressure a level's single leftover table
        // can neither merge (needs a pair) nor migrate (not the last
        // level); demote it one level toward the repository so the
        // footprint can actually shrink below the cap.
        // NVM pressure above the soft watermark wants the same thing
        // the buffer cap does: push data toward the repository, which
        // is what actually frees device bytes (urgency boost).
        if (underMemoryPressure() && bl.size() == 1) {
            std::shared_ptr<PMTable> demoted = bl.beginMigration();
            if (demoted) {
                state_->levels.level(level + 1).push(demoted);
                bl.finishMigration();
                return CompactResult::kWorked;
            }
        }
        return CompactResult::kNoWork;
    }
    // Every version a merge drops decays the value log's live-bytes
    // estimate for the segment its pointer targets (GC trigger input).
    const DropNotify drop_hook =
        state_->vlog != nullptr
            ? DropNotify([this](EntryType t, const Slice &v) {
                  noteDropped(t, v);
              })
            : DropNotify();
    // kNvmBuffer accounting at the merge boundary is a before/after
    // delta over the surviving table(s): absorb() co-owns arenas, so
    // asking the inputs afterwards would double-count, and a copying
    // merge's output is a fresh arena whose inputs die at finishMerge.
    const size_t before_bytes =
        op->newt->arenaBytes() + op->oldt->arenaBytes();
    auto settleMergeDelta = [this](size_t before, size_t after) {
        if (after >= before)
            chargeNvmBuffer(after - before);
        else
            releaseNvmBuffer(before - after);
        assert(governor_->chargesConsistent());
    };
    if (options_.zero_copy_merge) {
        zeroCopyMerge(op.get(), nvm_, &stats_, nullptr, keep_seq,
                      drop_hook);
        ensureFence(op->oldt.get());
        // Publish the result downstream before retiring the merge so
        // readers never lose sight of the data.
        state_->levels.level(level + 1).push(op->oldt);
        bl.finishMerge(op);
        settleMergeDelta(before_bytes, op->oldt->arenaBytes());
    } else {
        uint64_t table_id = state_->next_table_id.fetch_add(1);
        auto result = copyingMerge(op->newt, op->oldt, nvm_, &stats_,
                                   table_id, options_.bits_per_key,
                                   keep_seq, drop_hook);
        if (result == nullptr) {
            // The NVM budget denied the copy target; degrade to the
            // allocation-free zero-copy merge instead of failing.
            zeroCopyMerge(op.get(), nvm_, &stats_, nullptr, keep_seq,
                          drop_hook);
            ensureFence(op->oldt.get());
            state_->levels.level(level + 1).push(op->oldt);
            bl.finishMerge(op);
            settleMergeDelta(before_bytes, op->oldt->arenaBytes());
            return CompactResult::kWorked;
        }
        const size_t after_bytes = result->arenaBytes();
        ensureFence(result.get());
        state_->levels.level(level + 1).push(std::move(result));
        bl.finishMerge(op);
        settleMergeDelta(before_bytes, after_bytes);
    }
    return CompactResult::kWorked;
}

void
MioDB::ensureFence(PMTable *table)
{
    if (table->fence() == nullptr)
        table->setFence(FenceIndex::fromNvmList(table->list(), nvm_));
}

void
MioDB::fenceRebuildJob()
{
    // A table a merge claims mid-walk is skipped (the merge gives its
    // result a fence); one demoted mid-walk is found again a level
    // down. A few passes settle both; a table still unfenced after
    // them just keeps the plain descent until its next merge.
    bool moved = true;
    for (int pass = 0; pass < 4 && moved; pass++) {
        moved = false;
        for (int i = 0; i < state_->levels.numLevels(); i++) {
            BufferLevel &bl = state_->levels.level(i);
            for (const auto &table : bl.unfencedTables()) {
                if (shutting_down_.load() || crashed_.load())
                    break;
                // A merge claiming the table mid-walk can lead the
                // walk into another table's nodes; the reader epoch
                // keeps those alive like any lookup's.
                std::shared_ptr<const FenceIndex> fence;
                {
                    ReadGuard guard(this);
                    fence = FenceIndex::fromNvmList(table->list(), nvm_);
                }
                if (!bl.publishFence(table, std::move(fence)))
                    moved = true;
            }
        }
    }
    // Last touch of this store: a closing store waits for the token.
    fence_rebuild_scheduled_.store(false);
}

bool
MioDB::levelHasWork(int level) const
{
    BufferLevel &bl = state_->levels.level(level);
    if (level == options_.elastic_levels - 1)
        return bl.size() > 0 || bl.migratingTable() != nullptr;
    if (bl.size() >= 2)
        return true;
    // A single table is work only under pressure (demotion path).
    return underMemoryPressure() && bl.size() == 1;
}

void
MioDB::kickCompaction()
{
    if (!options_.auto_compaction)
        return;
    // Last level first: migration is what frees NVM, and its job
    // class already outranks the in-buffer merges.
    for (int i = options_.elastic_levels - 1; i >= 0; i--) {
        if (levelHasWork(i))
            scheduleCompaction(i);
    }
}

void
MioDB::kickMaintenance()
{
    bool pending;
    {
        std::lock_guard<std::mutex> il(imm_mu_);
        pending = !imms_.empty();
    }
    if (pending)
        scheduleFlush();
    kickCompaction();
    scheduleVlogGc();
}

void
MioDB::noteDropped(EntryType type, const Slice &value)
{
    if (type != EntryType::kValuePointer || state_->vlog == nullptr)
        return;
    ValuePointer vp;
    if (!ValuePointer::decode(value, &vp))
        return;
    state_->vlog->noteDead(vp);
    scheduleVlogGc();
}

void
MioDB::scheduleVlogGc()
{
    if (sched_ == nullptr || crashed_.load() || shutting_down_.load())
        return;
    if (state_->vlog == nullptr || options_.vlog_gc_trigger_ratio <= 0)
        return;
    // Held from the enabled check through the submit: the destructor
    // disables GC under this lock, so no job can be submitted after
    // its quiesce wait has seen the GC stream idle.
    std::lock_guard<std::mutex> gl(vlog_gc_mu_);
    if (!vlog_gc_enabled_.load(std::memory_order_acquire))
        return;
    // Only queue a job when it has something to do: a victim past the
    // trigger ratio, or a fully-relocated segment awaiting its
    // snapshot gate. Keeps idle stores from cycling no-op jobs.
    if (vlog_pending_unlinks_.empty() &&
        !state_->vlog->hasGcCandidate(options_.vlog_gc_trigger_ratio))
        return;
    if (vlog_gc_scheduled_.exchange(true))
        return;
    sched_->submit(
        sched::JobClass::kVlogGc, [this] { vlogGcJob(); },
        [this] { vlog_gc_scheduled_.store(false); });
}

void
MioDB::vlogGcJob()
{
    ValueLog *vlog = state_->vlog.get();
    if (vlog == nullptr || shutting_down_.load() || crashed_.load()) {
        vlog_gc_scheduled_.store(false);
        sched_->notifyEvent();
        return;
    }

    // Unlink segments whose gate has passed: every snapshot that could
    // still resolve a pre-relocation pointer (bound < gc_seq) is gone.
    auto processPendingUnlinks = [&] {
        const uint64_t oldest = oldestSnapshotSeq();
        std::vector<uint64_t> ready;
        {
            std::lock_guard<std::mutex> gl(vlog_gc_mu_);
            auto it = vlog_pending_unlinks_.begin();
            while (it != vlog_pending_unlinks_.end()) {
                if (oldest >= it->gc_seq) {
                    ready.push_back(it->segment_id);
                    it = vlog_pending_unlinks_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (uint64_t id : ready) {
            // A crash here loses only the unlink: the segment's
            // records are all dead (index moved past them), so the
            // reopened store's GC probes re-discover and re-unlink it.
            MIO_FAILPOINT("vlog.gc.before_unlink");
            vlog->unlinkSegment(id);
        }
    };
    processPendingUnlinks();

    const uint64_t victim =
        options_.vlog_gc_trigger_ratio > 0
            ? vlog->pickGcVictim(options_.vlog_gc_trigger_ratio)
            : 0;
    bool aborted = false;
    bool deferred = false;
    if (victim != 0 && !shutting_down_.load() && !crashed_.load()) {
        stats_.vlog_gc_passes.fetch_add(1, std::memory_order_relaxed);
        std::vector<ValueLog::Record> records;
        if (vlog->collectRecords(victim, &records)) {
            for (const ValueLog::Record &rec : records) {
                if (shutting_down_.load() || crashed_.load()) {
                    aborted = true;
                    break;
                }
                // Liveness probe: the record is live iff the key's
                // newest committed entry is a pointer at exactly this
                // record. A corrupt probe means liveness is unknown --
                // never unlink over it.
                std::string cur;
                EntryType t = EntryType::kValue;
                bool corrupt = false;
                bool found = findNewestRaw(Slice(rec.key), &cur, &t,
                                           nullptr, &corrupt);
                if (corrupt) {
                    aborted = true;
                    break;
                }
                ValuePointer curp;
                if (!found || t != EntryType::kValuePointer ||
                    !ValuePointer::decode(Slice(cur), &curp) ||
                    !(curp == rec.ptr)) {
                    continue;  // dead record: nothing to move
                }
                MIO_FAILPOINT("vlog.gc.relocate");
                std::string payload;
                Status rs = vlog->read(Slice(rec.key), rec.ptr, &payload);
                if (!rs.isOk()) {
                    aborted = true;  // damaged or racing: keep segment
                    break;
                }
                // Copy first, then swing the index. A crash between
                // the two leaves an orphan copy that a later pass
                // finds dead and reclaims with its segment.
                ValuePointer np;
                Status as = vlog->append(Slice(rec.key), Slice(payload),
                                         &np);
                if (!as.isOk()) {
                    aborted = true;  // NVM budget denied: retry later
                    break;
                }
                stats_.vlog_gc_relocated_bytes.fetch_add(
                    payload.size(), std::memory_order_relaxed);
                std::string encoded = np.encode();
                Writer w;
                w.key = Slice(rec.key);
                w.value = Slice(encoded);
                w.type = EntryType::kValuePointer;
                w.relocation = true;
                w.expected_ptr = rec.ptr;
                w.payload_bytes = rec.key.size() + encoded.size();
                Status ws = writeImpl(&w);
                if (!ws.isOk()) {
                    // Queue contention (busy) or a frozen store: the
                    // fresh copy was never indexed, so it is garbage.
                    vlog->noteDead(np);
                    aborted = true;
                    deferred = ws.isBusy();
                    break;
                }
                if (w.relocation_outcome.isOk()) {
                    // Applied; the old copy died with the install.
                } else if (w.relocation_outcome.isNotFound()) {
                    // A user write superseded us between probe and
                    // commit: our copy was never indexed.
                    vlog->noteDead(np);
                } else {
                    // Corrupt re-probe under leadership: liveness of
                    // the remaining records is unknowable.
                    vlog->noteDead(np);
                    aborted = true;
                    break;
                }
            }
        }
        if (!aborted) {
            // Every record is dead or relocated. The unlink waits for
            // snapshots captured before this instant to drain; new
            // snapshots (bound >= gc_seq) see the relocated pointers.
            const uint64_t gc_seq =
                visible_seq_.load(std::memory_order_acquire);
            // Pull the victim out of GC candidacy first, or the next
            // pass re-picks it and spins re-probing its (all-dead)
            // records for as long as a pinned snapshot holds the gate.
            vlog->markGcQueued(victim);
            std::lock_guard<std::mutex> gl(vlog_gc_mu_);
            vlog_pending_unlinks_.push_back(
                PendingUnlink{victim, gc_seq});
        }
    }

    // With no snapshots pinned the gate passes immediately; take the
    // freshly-emptied victim down in this same pass so waitIdle
    // converges without another kick.
    processPendingUnlinks();

    if (deferred && !shutting_down_.load() && !crashed_.load() &&
        vlog_gc_enabled_.load(std::memory_order_acquire)) {
        // Writer-queue contention: keep the token and retry after a
        // backoff (mirrors the flush/compaction retry pattern).
        sched_->submitAfter(
            sched::JobClass::kVlogGc, 10, [this] { vlogGcJob(); },
            [this] {
                vlog_gc_scheduled_.store(false);
                sched_->notifyEvent();
            });
        return;
    }
    vlog_gc_scheduled_.store(false);
    sched_->notifyEvent();
    if (!shutting_down_.load() && !crashed_.load() &&
        vlog->hasGcCandidate(options_.vlog_gc_trigger_ratio)) {
        scheduleVlogGc();
    }
}

void
MioDB::simulateCrash()
{
    onSimCrash();
}

void
MioDB::abandonOpen()
{
    // Freezing drops every job this open queued (their on_drop hooks
    // release the tokens); a job already running must finish before
    // the constructor unwinds the members it touches.
    onSimCrash();
    if (owned_sched_ != nullptr) {
        owned_sched_->shutdown(/*run_pending=*/false);
    } else {
        sched::WaitOptions wo;
        wo.kick = [this] { sched_->notifyEvent(); };
        wo.tick_ms = 2;
        sched_->waitUntil(
            [this] {
                if (flush_scheduled_.load())
                    return false;
                for (int i = 0; i < options_.elastic_levels; i++) {
                    if (compact_scheduled_[i].load())
                        return false;
                }
                return true;
            },
            wo);
        // A flush job's last touch is its token release under imm_mu_;
        // a compaction job's ends under compact_exit_mu_.
        { std::lock_guard<std::mutex> il(imm_mu_); }
        std::lock_guard<std::mutex> cl(compact_exit_mu_);
    }
    detachFromNvmState();
}

void
MioDB::detachFromNvmState()
{
    // The levels and the repository survive in NvmState; drop their
    // references into this instance (the next open rebinds its own).
    for (int i = 0; i < state_->levels.numLevels(); i++)
        state_->levels.level(i).setRetireCallback(nullptr);
    state_->repo->setDropNotify(nullptr);
    state_->repo->rebindScheduler(nullptr);
}

void
MioDB::onSimCrash()
{
    const bool first = !crashed_.exchange(true);
    if (sched_ != nullptr) {
        // Freeze is idempotent, so this composes with the scheduler's
        // own SimCrash handling (which froze before calling us) and
        // with foreground crash sites (writeImpl's catch, and
        // simulateCrash), which freeze here.
        sched_->freeze();
        sched_->notifyEvent();
    }
    // Power failure is machine-wide: let the facade crash the sibling
    // shards. Fired once, after this shard froze, so the hook's own
    // simulateCrash() calls back into the exchange guard and return.
    if (first && crash_hook_)
        crash_hook_();
}

void
MioDB::recoverInterruptedCompactions()
{
    // A crash can leave each level with an in-flight zero-copy merge
    // (pair claimed, insertion mark possibly set) and the last level
    // with an in-flight migration. Both are completed before serving:
    // the merge resumes from the persistent mark (Sec. 4.7), and the
    // migration re-runs -- lazy-copy is idempotent per key/sequence.
    for (int i = 0; i < state_->levels.numLevels(); i++) {
        BufferLevel &bl = state_->levels.level(i);
        BufferLevel::Snapshot snap = bl.snapshot();
        if (snap.merge) {
            // No snapshots can be live this early in reopen, so the
            // merge may drop everything shadowed. Dropped pointers
            // still decay the vlog estimate.
            const DropNotify drop_hook =
                state_->vlog != nullptr
                    ? DropNotify([this](EntryType t, const Slice &v) {
                          noteDropped(t, v);
                      })
                    : DropNotify();
            resumeZeroCopyMerge(snap.merge.get(), nvm_, &stats_,
                                nullptr, kMaxSequence, drop_hook);
            if (i + 1 < state_->levels.numLevels()) {
                state_->levels.level(i + 1).push(snap.merge->oldt);
                bl.finishMerge(snap.merge);
            } else {
                Status ms = state_->repo->mergeTable(
                    snap.merge->oldt.get(), kMaxSequence);
                for (int retry = 0; !ms.isOk() && retry < 3; retry++) {
                    ms = state_->repo->mergeTable(
                        snap.merge->oldt.get(), kMaxSequence);
                }
                // On persistent failure leave the merge published:
                // readers still reach oldt through the manifest, so
                // the level is wedged but no data is lost.
                if (ms.isOk())
                    bl.finishMerge(snap.merge);
            }
        }
        if (snap.migrating) {
            Status ms = state_->repo->mergeTable(snap.migrating.get(),
                                                 kMaxSequence);
            // On failure the migration stays in flight (still
            // readable); compactLevelOnce retries it once jobs run.
            if (ms.isOk())
                bl.finishMigration();
        }
    }
}

void
MioDB::applyBufferCap()
{
    if (options_.nvm_buffer_cap_bytes == 0)
        return;
    auto overCap = [this] {
        return nvmBufferCharged() > options_.nvm_buffer_cap_bytes;
    };
    if (!overCap())
        return;
    // A job's own write (vlog GC relocation) in deterministic mode
    // must not park here: nested waitUntil on a job thread cannot
    // assist-run the merges that would shrink the buffer.
    if (sched_->deterministic() &&
        sched::BackgroundScheduler::inJob())
        return;
    // Elastic-buffer ceiling reached: throttle until migration makes
    // room (counted as a cumulative stall, like the baselines').
    // Every tick re-kicks compaction in case a level has demotable
    // work no completion event announced.
    ScopedTimer stall(&stats_.cumulative_stall_ns);
    sched::WaitOptions wo;
    wo.kick = [this] { kickCompaction(); };
    wo.tick_ms = 1;
    sched_->waitUntil(
        [&] {
            return !overCap() || shutting_down_.load() ||
                   crashed_.load() || sched_->frozen();
        },
        wo);
}

bool
MioDB::nvmOverSoftWatermark() const
{
    uint64_t cap = nvm_->capacityBytes();
    if (cap == 0)
        return false;
    // Live governor value, not the option: the tuner lowers the soft
    // watermark under sustained write stalls so migration starts
    // freeing NVM earlier.
    return static_cast<double>(nvm_->meters().bytes_allocated) >
           governor_->nvmSoftWatermark() * static_cast<double>(cap);
}

Status
MioDB::applyNvmWatermarks()
{
    const uint64_t cap = nvm_->capacityBytes();
    if (cap == 0)
        return Status::ok();
    auto usage = [&] {
        return static_cast<double>(nvm_->meters().bytes_allocated) /
               static_cast<double>(cap);
    };
    // A parked flush job with a full immutable backlog is exhaustion
    // regardless of the usage fraction: a budget smaller than one
    // chunk ask denies allocations while bytes_allocated/cap still
    // sits below the watermarks. Without this, the next rotation
    // would wait forever on a backlog nothing can drain.
    auto flushWedged = [this] {
        if (!flush_blocked_.load())
            return false;
        std::lock_guard<std::mutex> il(imm_mu_);
        return static_cast<int>(imms_.size()) >
               options_.max_immutable_memtables;
    };
    const double soft_wm = governor_->nvmSoftWatermark();
    const double hard_wm = governor_->nvmHardWatermark();
    double u = usage();
    if (u < soft_wm && !flushWedged())
        return Status::ok();
    // Urgency boost: migration toward the repository is what frees
    // NVM. Kicking schedules the merge jobs; the urgency probes lift
    // them ahead of everything else while pressure lasts.
    kickMaintenance();
    if (u < hard_wm && !flushWedged()) {
        stats_.write_slowdowns.fetch_add(1, std::memory_order_relaxed);
        ScopedTimer stall(&stats_.cumulative_stall_ns);
        sched_->waitFor(
            std::chrono::microseconds(options_.write_slowdown_micros));
        return Status::ok();
    }
    // Hard watermark (or wedged flusher): stall the leader (bounded)
    // waiting for migration/flush to make room, then fail the group
    // with busy -- callers see a clean retryable error, never an
    // abort.
    stats_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    ScopedTimer stall(&stats_.interval_stall_ns);
    sched::WaitOptions wo;
    wo.has_deadline = true;
    wo.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.write_stall_timeout_ms);
    wo.kick = [this] { kickMaintenance(); };
    wo.tick_ms = 1;
    bool drained = sched_->waitUntil(
        [&] {
            return (usage() < hard_wm && !flushWedged()) ||
                   shutting_down_.load() || crashed_.load();
        },
        wo);
    if (!drained) {
        stats_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
        return Status::busy("nvm hard watermark");
    }
    return Status::ok();
}

void
MioDB::notifyCapWaiters()
{
    if (options_.nvm_buffer_cap_bytes == 0)
        return;
    // The scheduler's event sequence orders this bump after any
    // waiter's predicate check, so a footprint drop cannot be missed.
    sched_->notifyEvent();
}

void
MioDB::retireTable(std::shared_ptr<PMTable> table)
{
    retireToGraveyard(std::move(table));
}

void
MioDB::retireToGraveyard(std::shared_ptr<const void> retired)
{
    // Pairs with the fence in ReadGuard's constructor. The retired
    // object was unpublished before this call; if the load below
    // misses a reader's increment, that reader's first manifest /
    // snapshot load is guaranteed to observe the replacement
    // publication (the two seq_cst fences forbid both sides reading
    // stale), so the immediate drop can never free something a reader
    // can still reach.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (active_readers_.load(std::memory_order_acquire) == 0)
        return;
    std::lock_guard<std::mutex> lock(grave_mu_);
    graveyard_.push_back(std::move(retired));
}

void
MioDB::sweepGraveyard()
{
    std::vector<std::shared_ptr<const void>> doomed;
    {
        std::lock_guard<std::mutex> lock(grave_mu_);
        // A reader may have entered since the last one left, and a
        // retirer that counted it parked here what that reader can
        // still reach. That retirer's count load happens-before this
        // one (grave_mu_), so this load sees the reader too: sweep
        // only while none is in flight, else it sweeps on its way out.
        if (active_readers_.load(std::memory_order_acquire) != 0)
            return;
        doomed.swap(graveyard_);
    }
    // Chains and manifests free here, outside the lock.
}

uint64_t
MioDB::scrubNow()
{
    ReadGuard guard(this);
    uint64_t corruptions = 0;
    uint64_t pm_bytes = 0;
    // Pace the pass to scrub_rate_mb_per_sec in 256 KiB chunks so the
    // scrubber never competes with foreground gets for a full memory
    // bandwidth share. The guard stays pinned across the waits --
    // acceptable because a paced pass only delays chain reclamation,
    // never readers. Shutdown/freeze aborts the pacing (waitFor
    // returns early), not the walk.
    const uint64_t rate_bps = options_.scrub_rate_mb_per_sec << 20;
    uint64_t unpaced = 0;
    auto pace = [&](uint64_t bytes) {
        if (rate_bps == 0)
            return;
        unpaced += bytes;
        constexpr uint64_t kPaceChunk = 256u << 10;
        if (unpaced < kPaceChunk)
            return;
        if (!shutting_down_.load(std::memory_order_relaxed) &&
            !crashed_.load(std::memory_order_relaxed)) {
            sched_->waitFor(std::chrono::microseconds(
                unpaced * 1000000ull / rate_bps));
        }
        unpaced = 0;
    };
    // One table: walk the (possibly merge-entangled) level-0 chain and
    // verify every entry checksum. Quarantine on the first mismatch --
    // an entry cannot be trusted once its neighbours lied, and reads
    // covering the table must answer corruption, not maybe-stale data.
    auto scrubTable = [&](const std::shared_ptr<PMTable> &t) {
        if (t == nullptr || t->isQuarantined())
            return;
        uint64_t bad = 0;
        for (const SkipList::Node *n = t->list().first(); n != nullptr;
             n = n->next(0)) {
            const uint64_t entry_bytes =
                sizeof(SkipList::Node) + n->key_len + n->value_len;
            pm_bytes += entry_bytes;
            pace(entry_bytes);
            if (!n->checksumOk())
                bad++;
        }
        if (bad != 0) {
            t->quarantine();
            stats_.tables_quarantined.fetch_add(
                1, std::memory_order_relaxed);
            corruptions += bad;
        }
    };
    for (int i = 0; i < state_->levels.numLevels(); i++) {
        BufferLevel::Snapshot snap = state_->levels.level(i).snapshot();
        for (const auto &t : snap.tables)
            scrubTable(t);
        if (snap.merge) {
            scrubTable(snap.merge->newt);
            scrubTable(snap.merge->oldt);
        }
        scrubTable(snap.migrating);
    }
    // Charging the walked bytes as media reads both keeps the meters
    // honest and throttles the scrubber under a real perf model.
    nvm_->chargeRead(pm_bytes);

    Repository::ScrubReport repo = state_->repo->scrub();
    // The repository reports its walked bytes in one lump; settle the
    // pacing debt after the fact (the burst is one repository scan).
    pace(repo.bytes);

    // Value-log leg: re-verify every segment's frame CRCs. scrub()
    // bumps corruptions_detected itself, so its mismatches join the
    // return value only after the counter add below.
    uint64_t vlog_bytes = 0;
    uint64_t vlog_mismatches = 0;
    if (state_->vlog != nullptr) {
        vlog_mismatches = state_->vlog->scrub(&vlog_bytes);
        pace(vlog_bytes);
    }

    stats_.scrub_passes.fetch_add(1, std::memory_order_relaxed);
    stats_.scrub_bytes.fetch_add(pm_bytes + repo.bytes + vlog_bytes,
                                 std::memory_order_relaxed);
    stats_.tables_quarantined.fetch_add(repo.quarantined,
                                        std::memory_order_relaxed);
    corruptions += repo.corruptions;
    if (corruptions != 0) {
        stats_.corruptions_detected.fetch_add(
            corruptions, std::memory_order_relaxed);
    }
    // Media damage found anywhere invalidates the read cache whole:
    // a value cached before its source table was quarantined would
    // keep masking the corruption that reads must now surface.
    if (read_cache_ != nullptr &&
        (corruptions + vlog_mismatches > 0 || repo.quarantined > 0)) {
        read_cache_->clear();
    }
    return corruptions + vlog_mismatches;
}

void
MioDB::invalidateCacheFor(const lsm::MemTable &mem)
{
    if (read_cache_ == nullptr)
        return;
    for (const SkipList::Node *n = mem.list().first(); n != nullptr;
         n = n->next(0)) {
        read_cache_->invalidate(n->key());
    }
}

bool
MioDB::memoryAccountingConsistent() const
{
    // The drift witness holds at every instant (a mid-flight charge
    // can only make the sub-budget sum read low, never high).
    if (!governor_->chargesConsistent())
        return false;
    // Exact cross-checks against ground truth only make sense at
    // quiescence: an in-flight merge settles its charge only when it
    // finishes, and a shared governor aggregates every shard's
    // charges.
    if (sched_ == nullptr || sched_->busyJobs() != 0 ||
        state_->levels.anyLevelBusy())
        return true;
    if (nvm_buffer_bytes_.load(std::memory_order_relaxed) !=
        state_->levels.totalArenaBytes())
        return false;
    if (governor_->memtableChargers() == 1) {
        if (state_->vlog != nullptr &&
            governor_->charged(mem::SubBudget::kVlog) !=
                state_->vlog->capacityBytes())
            return false;
        if (read_cache_ != nullptr &&
            governor_->charged(mem::SubBudget::kReadCacheDram) !=
                read_cache_->bytesUsed())
            return false;
    }
    return true;
}

void
MioDB::memTunerPass()
{
    mem::MemoryGovernor::TunerSignals s;
    s.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
    s.cache_misses =
        stats_.cache_misses.load(std::memory_order_relaxed);
    s.cache_evictions =
        stats_.cache_evictions.load(std::memory_order_relaxed);
    s.write_stalls =
        stats_.write_stalls.load(std::memory_order_relaxed);
    s.write_slowdowns =
        stats_.write_slowdowns.load(std::memory_order_relaxed);
    s.busy_rejections =
        stats_.busy_rejections.load(std::memory_order_relaxed);
    s.flush_count = stats_.flush_count.load(std::memory_order_relaxed);
    const uint64_t cap = nvm_->capacityBytes();
    if (cap != 0) {
        s.nvm_usage =
            static_cast<double>(nvm_->meters().bytes_allocated) /
            static_cast<double>(cap);
    }
    if (governor_->tunerPass(s) && read_cache_ != nullptr) {
        // The cache retargets immediately (shrinks evict at once);
        // the MemTable side is picked up by the next rotation.
        read_cache_->setCapacity(
            governor_->limit(mem::SubBudget::kReadCacheDram));
    }
}

void
MioDB::waitIdle()
{
    auto drained = [this] {
        // Crashed/frozen first: a crash mid-flush leaves its victim
        // in imms_ forever, so the queue check below would otherwise
        // spin on a store that can never drain.
        if (shutting_down_.load() || crashed_.load() ||
            sched_->frozen())
            return true;
        {
            std::lock_guard<std::mutex> il(imm_mu_);
            // An exhausted NVM budget can pin the queue forever;
            // treat that as "as idle as the store can get".
            if (!imms_.empty() && !flush_blocked_.load())
                return false;
        }
        auto idle = [this](sched::JobClass c) {
            return sched_->queued(c) == 0 && sched_->running(c) == 0;
        };
        // Without compaction jobs the buffer never drains further
        // than the flusher leaves it; idle == immutables flushed.
        // quiescent() alone is not enough: a still-queued merge job
        // (e.g. a pressure demotion) would keep reshaping the buffer
        // -- and freeing NVM -- after waitIdle returned.
        if (options_.auto_compaction &&
            (!state_->levels.quiescent() ||
             !idle(sched::JobClass::kZeroCopyMerge) ||
             !idle(sched::JobClass::kLazyCopyMerge)))
            return false;
        // Vlog GC converges: each job processes ripe unlinks and at
        // most one victim, resubmitting only while another victim
        // exists. Snapshot-gated unlinks do NOT hold waitIdle open --
        // they can only ripen once the caller releases its pins.
        if (!idle(sched::JobClass::kVlogGc) ||
            vlog_gc_scheduled_.load())
            return false;
        // A reopen's fence rebuild republishes manifests: wait for it.
        if (fence_rebuild_scheduled_.load())
            return false;
        // Housekeeping counts: callers rely on waitIdle meaning every
        // flushed segment's WAL has been recycled (the old flusher did
        // it synchronously), e.g. when measuring NVM occupancy.
        return idle(sched::JobClass::kWalRecycle);
    };
    // Wedge detection (WaitOptions): an exhausted budget can leave
    // levels that are not quiescent yet can never drain (every
    // migration retry is denied allocation). If no background counter
    // moves while the device keeps denying allocations, further
    // waiting would hang every caller.
    sched::WaitOptions wo;
    wo.kick = [this] { kickMaintenance(); };
    wo.progress = [this] {
        return stats_.flush_count.load(std::memory_order_relaxed) +
               stats_.compaction_count.load(
                   std::memory_order_relaxed) +
               stats_.zero_copy_merges.load(
                   std::memory_order_relaxed) +
               stats_.lazy_copy_merges.load(
                   std::memory_order_relaxed);
    };
    wo.denials = [this] {
        return nvm_->faultMeters().alloc_failures;
    };
    kickMaintenance();
    sched_->waitUntil(drained, wo);
    state_->repo->waitIdle();
}

} // namespace mio::miodb
