#include "lsm/lsm_tree.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>

#include "sim/failpoint.h"
#include "util/clock.h"

namespace mio::lsm {

std::unique_ptr<sched::BackgroundScheduler>
LsmTree::makePrivateScheduler()
{
    sched::BackgroundScheduler::Options so;
    so.num_workers = std::max(options_.compaction_threads, 1);
    so.stats = stats_;
    // A SimCrash escaping a job freezes the pool; mirror that into
    // the tree's own flag so waitIdle and scheduling stand down.
    so.on_crash = [this] { crashed_.store(true); };
    return std::make_unique<sched::BackgroundScheduler>(so);
}

LsmTree::LsmTree(const LsmOptions &options, sim::StorageMedium *medium,
                 StatsCounters *stats, std::string name_prefix,
                 sched::BackgroundScheduler *sched)
    : options_(options), medium_(medium), stats_(stats),
      name_prefix_(std::move(name_prefix)), versions_(options),
      sched_(sched)
{
    if (sched_ == nullptr) {
        owned_sched_ = makePrivateScheduler();
        sched_ = owned_sched_.get();
    }
}

LsmTree::~LsmTree()
{
    if (owned_sched_) {
        // Drop (not drain) queued compactions: their on_drop hooks
        // release the file claims, and SSTables + the version set are
        // already durable without them.
        owned_sched_->shutdown(/*run_pending=*/false);
    }
    // External scheduler: the owner quiesced it and detached us
    // (rebindScheduler(nullptr)) before destruction.
}

std::shared_ptr<FileMeta>
LsmTree::installBlob(std::string contents, uint64_t number,
                     uint64_t num_entries, std::string smallest,
                     std::string largest)
{
    auto meta = std::make_shared<FileMeta>();
    meta->number = number;
    meta->blob_name = name_prefix_ + "-" + std::to_string(number);
    meta->smallest = std::move(smallest);
    meta->largest = std::move(largest);
    meta->file_size = contents.size();
    meta->num_entries = num_entries;

    // Transient I/O errors (a flaky simulated SSD) are retried with
    // exponential backoff; the caller sees nullptr only after the
    // retry budget is spent, and propagates a clean error upward.
    auto with_retries = [&](const std::function<Status()> &io) {
        Status s;
        for (int attempt = 0;; attempt++) {
            s = io();
            if (s.isOk() || attempt >= options_.io_retries)
                return s;
            stats_->ssd_io_retries.fetch_add(1,
                                             std::memory_order_relaxed);
            // Interruptible backoff: wakes early when the scheduler
            // freezes (SimCrash) or shuts down, so a retry storm never
            // delays teardown.
            if (sched_ != nullptr) {
                sched_->waitFor(std::chrono::microseconds(
                    options_.io_retry_backoff_us << attempt));
            }
        }
    };

    Status s = with_retries([&] {
        return medium_->writeBlob(meta->blob_name, Slice(contents));
    });
    if (!s.isOk())
        return nullptr;
    // The blob exists but no version references it yet; a crash here
    // merely orphans it (the version set is rebuilt from NvmState).
    MIO_FAILPOINT("ssd.sstable.after_write");
    stats_->storage_bytes_written.fetch_add(contents.size(),
                                            std::memory_order_relaxed);
    s = with_retries([&] {
        return TableReader::open(medium_, meta->blob_name,
                                 &meta->reader,
                                 &stats_->deserialization_ns);
    });
    if (!s.isOk()) {
        medium_->deleteBlob(meta->blob_name);
        return nullptr;
    }
    return meta;
}

Status
LsmTree::writeTables(KVIterator *iter, bool drop_tombstones,
                     std::vector<std::shared_ptr<FileMeta>> *outputs)
{
    std::unique_ptr<TableBuilder> builder;
    std::string last_user_key;
    bool has_last = false;

    auto finish_table = [&]() -> Status {
        if (!builder || builder->numEntries() == 0)
            return Status::ok();
        uint64_t number = versions_.nextFileNumber();
        std::string smallest = builder->smallestKey();
        std::string largest = builder->largestKey();
        uint64_t entries = builder->numEntries();
        std::string contents = builder->finish();
        auto meta = installBlob(std::move(contents), number, entries,
                                std::move(smallest),
                                std::move(largest));
        if (meta == nullptr) {
            // Retries exhausted. Earlier outputs stay as orphaned
            // blobs (same as a crash mid-flush); the caller re-runs
            // the whole flush/compaction.
            return Status::ioError("sstable install failed");
        }
        outputs->push_back(std::move(meta));
        builder.reset();
        return Status::ok();
    };

    for (iter->seekToFirst(); iter->valid(); iter->next()) {
        ParsedInternalKey parsed;
        if (!parseInternalKey(iter->key(), &parsed))
            return Status::corruption("bad internal key in compaction");
        // Keep only the newest version of each user key.
        if (has_last && parsed.user_key == Slice(last_user_key)) {
            if (drop_notify_)
                drop_notify_(parsed.type, iter->value());
            continue;
        }
        last_user_key.assign(parsed.user_key.data(),
                             parsed.user_key.size());
        has_last = true;
        if (drop_tombstones && parsed.type == EntryType::kDeletion)
            continue;

        if (!builder) {
            builder = std::make_unique<TableBuilder>(
                options_.block_size, options_.bits_per_key);
        }
        builder->add(iter->key(), iter->value());
        if (builder->estimatedSize() >= options_.sstable_target_size) {
            Status s = finish_table();
            if (!s.isOk())
                return s;
        }
    }
    return finish_table();
}

Status
LsmTree::flushToL0(KVIterator *iter)
{
    ScopedTimer flush_timer(&stats_->flush_ns);
    std::vector<std::shared_ptr<FileMeta>> outputs;
    Status s;
    {
        ScopedTimer ser_timer(&stats_->serialization_ns);
        s = writeTables(iter, /*drop_tombstones=*/false, &outputs);
    }
    if (!s.isOk())
        return s;
    // Tables written, none installed: a crash here loses the whole
    // flush, and the caller's source table (still in the elastic
    // buffer) is re-migrated on reopen.
    MIO_FAILPOINT("ssd.flush.before_install");
    for (auto &meta : outputs) {
        stats_->flushed_bytes.fetch_add(meta->file_size,
                                        std::memory_order_relaxed);
        versions_.addFile(0, std::move(meta));
    }
    stats_->flush_count.fetch_add(1, std::memory_order_relaxed);
    maybeScheduleCompaction();
    return Status::ok();
}

Status
LsmTree::mergeIntoLevel(int level, KVIterator *iter, const Slice &lo_user,
                        const Slice &hi_user)
{
    ScopedTimer timer(&stats_->compaction_ns);
    auto victims = versions_.overlappingFiles(level, lo_user, hi_user);

    // MergingIterator owns children; wrap iter in a non-owning shim.
    class Borrowed : public KVIterator
    {
      public:
        explicit Borrowed(KVIterator *it) : it_(it) {}
        bool valid() const override { return it_->valid(); }
        void seekToFirst() override { it_->seekToFirst(); }
        void seek(const Slice &k) override { it_->seek(k); }
        void next() override { it_->next(); }
        Slice key() const override { return it_->key(); }
        Slice value() const override { return it_->value(); }

      private:
        KVIterator *it_;
    };

    std::vector<std::unique_ptr<KVIterator>> children;
    // Incoming data is newer than every existing file: index 0 wins.
    children.push_back(std::make_unique<Borrowed>(iter));
    for (const auto &f : victims)
        children.push_back(std::make_unique<TableIterator>(f->reader));

    MergingIterator merged(std::move(children));
    bool bottom = (level >= versions_.lastPopulatedLevel()) &&
                  options_.drop_tombstones_at_bottom;
    std::vector<std::shared_ptr<FileMeta>> outputs;
    Status s = writeTables(&merged, bottom, &outputs);
    if (!s.isOk())
        return s;

    versions_.replaceFiles(level, victims, std::move(outputs));
    // Deferred reclamation: the blob dies with the last FileMeta
    // reference, so a pinned snapshot version keeps it readable.
    for (const auto &f : victims)
        f->delete_on_drop = medium_;
    stats_->compaction_count.fetch_add(1, std::memory_order_relaxed);
    maybeScheduleCompaction();
    return Status::ok();
}

bool
LsmTree::get(const Slice &user_key, std::string *value, EntryType *type,
             uint64_t *seq, bool *corrupt)
{
    // A quarantined (or checksum-failing) file that could hold the key
    // poisons the lookup: continuing to an older file or deeper level
    // would present stale data as current.
    auto damaged = [&](const std::shared_ptr<FileMeta> &f) {
        if (!f->quarantined.load(std::memory_order_acquire))
            return false;
        if (corrupt != nullptr)
            *corrupt = true;
        return true;
    };
    for (int attempt = 0; attempt < 3; attempt++) {
        bool retry = false;
        // L0: newest file first (files overlap).
        auto l0 = versions_.levelFiles(0);
        for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
            const auto &f = *it;
            if (user_key.compare(extractUserKey(Slice(f->smallest))) < 0 ||
                user_key.compare(extractUserKey(Slice(f->largest))) > 0) {
                continue;
            }
            if (damaged(f))
                return false;
            Status s = f->reader->get(user_key, value, type, seq);
            if (s.isOk())
                return true;
            if (s.isCorruption()) {
                if (corrupt != nullptr)
                    *corrupt = true;
                return false;
            }
            if (s.isIOError()) {
                retry = true;
                break;
            }
        }
        if (retry)
            continue;

        // L1+: at most one candidate file per level.
        for (int level = 1; level < versions_.numLevels(); level++) {
            auto files = versions_.levelFiles(level);
            for (const auto &f : files) {
                if (user_key.compare(
                        extractUserKey(Slice(f->smallest))) < 0 ||
                    user_key.compare(extractUserKey(Slice(f->largest))) >
                        0) {
                    continue;
                }
                if (damaged(f))
                    return false;
                Status s = f->reader->get(user_key, value, type, seq);
                if (s.isOk())
                    return true;
                if (s.isCorruption()) {
                    if (corrupt != nullptr)
                        *corrupt = true;
                    return false;
                }
                if (s.isIOError()) {
                    retry = true;
                    break;
                }
                break;  // disjoint ranges: only one file can match
            }
            if (retry)
                break;
        }
        if (!retry)
            return false;
    }
    return false;
}

void
LsmTree::scrubTables(uint64_t *bytes, uint64_t *corruptions,
                     uint64_t *quarantined)
{
    for (int level = 0; level < versions_.numLevels(); level++) {
        for (const auto &f : versions_.levelFiles(level)) {
            if (f->quarantined.load(std::memory_order_acquire))
                continue;
            *bytes += f->file_size;
            if (!f->reader->verifyBody()) {
                f->quarantined.store(true, std::memory_order_release);
                (*corruptions)++;
                (*quarantined)++;
            }
        }
    }
}

std::unique_ptr<KVIterator>
LsmTree::newIterator() const
{
    std::vector<std::unique_ptr<KVIterator>> children;
    auto l0 = versions_.levelFiles(0);
    for (auto it = l0.rbegin(); it != l0.rend(); ++it)
        children.push_back(std::make_unique<TableIterator>((*it)->reader));
    for (int level = 1; level < versions_.numLevels(); level++) {
        for (const auto &f : versions_.levelFiles(level))
            children.push_back(std::make_unique<TableIterator>(f->reader));
    }
    return std::make_unique<MergingIterator>(std::move(children));
}

std::unique_ptr<KVIterator>
LsmTree::newIterator(const VersionPin &pin) const
{
    std::vector<std::unique_ptr<KVIterator>> children;
    if (!pin.empty()) {
        const auto &l0 = pin[0];
        for (auto it = l0.rbegin(); it != l0.rend(); ++it)
            children.push_back(
                std::make_unique<TableIterator>((*it)->reader));
    }
    for (size_t level = 1; level < pin.size(); level++) {
        for (const auto &f : pin[level])
            children.push_back(std::make_unique<TableIterator>(f->reader));
    }
    return std::make_unique<MergingIterator>(std::move(children));
}

void
LsmTree::maybeScheduleCompaction()
{
    if (sched_ == nullptr || crashed_.load())
        return;
    // Claim-at-submit: each runnable job is claimed from the version
    // set here (so no two jobs overlap) and carries an on_drop hook
    // that releases the claim if the scheduler discards it unexecuted
    // (freeze or shutdown) -- the durable tree is reused by the next
    // store instance, which must find every file unclaimed.
    // The slot is counted BEFORE the pick claims any file: a waitIdle
    // probing in between sees the slot busy, never a claimed-but-not-
    // yet-counted job (it would find nothing to pick and return while
    // the compaction is about to run).
    const int max_outstanding = std::max(options_.compaction_threads, 1);
    while (true) {
        if (outstanding_.fetch_add(1, std::memory_order_acq_rel) >=
            max_outstanding) {
            outstanding_.fetch_sub(1, std::memory_order_acq_rel);
            return;
        }
        auto job =
            std::make_shared<CompactionJob>(versions_.pickCompaction());
        if (!job->valid()) {
            outstanding_.fetch_sub(1, std::memory_order_acq_rel);
            sched_->notifyEvent();
            return;
        }
        bool accepted = sched_->submit(
            sched::JobClass::kSsdCompaction,
            [this, job] { runCompactionJob(job.get()); },
            [this, job] {
                versions_.releaseJob(*job);
                outstanding_.fetch_sub(1, std::memory_order_acq_rel);
            });
        if (!accepted)
            return;
    }
}

void
LsmTree::runCompactionJob(CompactionJob *job)
{
    try {
        doCompaction(*job);
    } catch (const sim::SimCrash &) {
        versions_.releaseJob(*job);
        crashed_.store(true);
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
        // Rethrow so the scheduler performs the store-wide freeze and
        // fires the owner's crash callback.
        throw;
    }
    // The last reference to a compacted-away input deletes its blob.
    // Drop the job's references before the slot frees, so a waitIdle
    // that returns sees the final set of files.
    *job = CompactionJob();
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    sched_->notifyEvent();
    maybeScheduleCompaction();
}

void
LsmTree::rebindStats(StatsCounters *stats)
{
    stats_ = stats;
    // Cached readers hold a raw pointer into the previous owner's
    // counters; leave none behind or their next block read writes
    // into freed memory.
    std::atomic<uint64_t> *sink =
        stats != nullptr ? &stats->deserialization_ns : nullptr;
    for (const auto &level : versions_.allLevelFiles()) {
        for (const auto &file : level) {
            if (file->reader != nullptr)
                file->reader->rebindDeserTimer(sink);
        }
    }
}

void
LsmTree::rebindScheduler(sched::BackgroundScheduler *sched)
{
    assert(owned_sched_ == nullptr &&
           "only externally-scheduled trees change owners");
    assert(outstanding_.load() == 0 &&
           "rebinding requires a quiesced scheduler");
    sched_ = sched;
}

void
LsmTree::recoverFromCrash()
{
    if (!crashed_.load())
        return;
    crashed_.store(false);
    if (owned_sched_) {
        // The frozen pool is unusable (it drops every submission);
        // replace it wholesale. Queued claims were already released
        // through on_drop at freeze time.
        owned_sched_->shutdown(/*run_pending=*/false);
        owned_sched_ = makePrivateScheduler();
        sched_ = owned_sched_.get();
    }
    // External scheduler: the adopting store attached a fresh pool
    // via rebindScheduler before calling this.
    maybeScheduleCompaction();
}

void
LsmTree::waitIdle()
{
    if (sched_ == nullptr)
        return;
    maybeScheduleCompaction();
    sched_->waitUntil([this] {
        if (crashed_.load() || sched_->frozen())
            return true;
        if (outstanding_.load(std::memory_order_acquire) > 0)
            return false;
        // Probe for runnable work the pipeline hasn't claimed yet
        // (e.g. a compaction made the next level over-threshold while
        // outstanding_ was draining).
        CompactionJob job = versions_.pickCompaction();
        if (job.valid()) {
            versions_.releaseJob(job);
            maybeScheduleCompaction();
            return false;
        }
        return true;
    });
}

void
LsmTree::doCompaction(const CompactionJob &job)
{
    ScopedTimer timer(&stats_->compaction_ns);

    std::vector<std::unique_ptr<KVIterator>> children;
    if (job.level == 0) {
        // Newest L0 file first so it wins deduplication.
        for (auto it = job.inputs.rbegin(); it != job.inputs.rend(); ++it)
            children.push_back(
                std::make_unique<TableIterator>((*it)->reader));
    } else {
        for (const auto &f : job.inputs)
            children.push_back(std::make_unique<TableIterator>(f->reader));
    }
    for (const auto &f : job.overlaps)
        children.push_back(std::make_unique<TableIterator>(f->reader));

    MergingIterator merged(std::move(children));
    int out_level = std::min(job.level + 1, versions_.numLevels() - 1);
    bool bottom = options_.drop_tombstones_at_bottom &&
                  out_level >= versions_.lastPopulatedLevel();

    std::vector<std::shared_ptr<FileMeta>> outputs;
    Status s = writeTables(&merged, bottom, &outputs);
    if (!s.isOk()) {
        versions_.releaseJob(job);
        return;
    }

    versions_.applyCompaction(job, std::move(outputs));
    // Deferred reclamation: a pinned snapshot version may still hold
    // these files; each blob dies with its last FileMeta reference.
    for (const auto &f : job.inputs)
        f->delete_on_drop = medium_;
    for (const auto &f : job.overlaps)
        f->delete_on_drop = medium_;
    stats_->compaction_count.fetch_add(1, std::memory_order_relaxed);
}

} // namespace mio::lsm
