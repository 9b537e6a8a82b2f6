#include "miodb/lazy_copy_merge.h"

#include "lsm/iterator.h"
#include "miodb/skiplist_merge_util.h"
#include "sim/failpoint.h"
#include "util/clock.h"

namespace mio::miodb {

namespace {

/** Iterator over nothing (repository whose arena never materialized). */
class EmptyIterator : public lsm::KVIterator
{
  public:
    bool valid() const override { return false; }
    void seekToFirst() override {}
    void seek(const Slice &) override {}
    void next() override {}
    Slice key() const override { return Slice(); }
    Slice value() const override { return Slice(); }
};

/** Build a skip-list head node inside a growable NVM arena.
 *  @return nullptr when the NVM capacity budget denies the chunk. */
SkipList::Node *
makeHeadIn(ChunkedNvmArena *arena)
{
    size_t bytes = sizeof(SkipList::Node) +
                   SkipList::kMaxHeight * sizeof(std::atomic<void *>);
    auto *head = reinterpret_cast<SkipList::Node *>(arena->allocate(bytes));
    if (head == nullptr)
        return nullptr;
    head->seq = 0;
    head->prefix = 0;
    head->key_len = 0;
    head->value_len = 0;
    head->height = SkipList::kMaxHeight;
    head->type = static_cast<uint8_t>(EntryType::kValue);
    head->reserved = 0;
    head->checksum =
        SkipList::entryChecksum(Slice(), 0, EntryType::kValue, Slice());
    for (int i = 0; i < SkipList::kMaxHeight; i++)
        head->setNextRelaxed(i, nullptr);
    return head;
}

} // namespace

PmRepository::PmRepository(sim::NvmDevice *device, StatsCounters *stats)
    : device_(device), stats_(stats), arena_(device)
{
    // Under an exhausted NVM budget the head cannot be built yet;
    // mergeTable retries lazily (reads just miss meanwhile).
    if (SkipList::Node *head = makeHeadIn(&arena_)) {
        list_ = std::make_unique<SkipList>(head, 0,
                                           /*rng_seed=*/0x4e564d21);
    }
}

Status
PmRepository::mergeTable(PMTable *src, uint64_t keep_seq)
{
    ScopedTimer timer(&stats_->compaction_ns);
    if (list_ == nullptr) {
        SkipList::Node *head = makeHeadIn(&arena_);
        if (head == nullptr)
            return Status::busy("repo: nvm capacity exhausted");
        list_ = std::make_unique<SkipList>(head, 0,
                                           /*rng_seed=*/0x4e564d21);
    }

    size_t pointer_stores = 0;

    auto flush_charges = [&]() {
        if (pointer_stores > 0) {
            device_->chargeWrite(pointer_stores * sizeof(void *));
            stats_->storage_bytes_written.fetch_add(
                pointer_stores * sizeof(void *),
                std::memory_order_relaxed);
            pointer_stores = 0;
        }
    };

    // Runs arrive in key order, so each descent resumes from the
    // previous run's splice (a retry after busy starts from the head).
    SkipList::Splice finger = list_->headSplice();
    SkipList::Node *n = src->list().first();
    while (n != nullptr) {
        // Gather this key's whole version run (level-0 order keeps
        // same-key versions contiguous, newest first).
        Slice key = n->key();
        std::vector<SkipList::Node *> run;
        for (SkipList::Node *v = n; v != nullptr && v->key() == key;
             v = v->nextRelaxed(0))
            run.push_back(v);
        n = run.back()->nextRelaxed(0);

        int compared = 0;
        SkipList::Splice splice = finger;
        SkipList::Node *succ =
            list_->findGreaterOrEqualFrom(key, &splice, &compared);
        device_->chargeRandomReads(compared);
        finger = splice;

        // Copy in the run's snapshot-visible prefix: every version
        // down to (and including) the first with seq <= keep_seq --
        // everything below that is shadowed for all live snapshots. A
        // tombstone above keep_seq is stored so newer reads see the
        // deletion while a pinned snapshot still reaches the value
        // below it; a tombstone at or below keep_seq keeps today's
        // delete-and-drop (nothing lives below the repository).
        // Publishing is idempotent per (key, seq): a crashed or
        // budget-bounced merge re-runs and reuses the copies that
        // already landed.
        bool shadowed = false;
        for (SkipList::Node *v : run) {
            MIO_FAILPOINT("lcm.publish_node");
            if (shadowed) {
                // Shadowed for every live snapshot: never copied in,
                // reclaimed with the source arena.
                if (drop_notify_)
                    drop_notify_(v->entryType(), v->value());
                continue;
            }
            bool shadows_rest = v->seq <= keep_seq;
            if (shadows_rest)
                shadowed = true;
            if (v->entryType() == EntryType::kDeletion && shadows_rest)
                continue;  // deletes below, itself dropped

            succ = advanceSpliceOverNewer(key, v->seq, &splice, succ);
            if (succ != nullptr && succ->key() == key &&
                succ->seq == v->seq) {
                // Already durably copied by an earlier attempt: keep
                // that copy and step past it.
                for (int level = 0; level < succ->height; level++)
                    splice.prev[level] = succ;
                succ = succ->next(0);
                continue;
            }

            SkipList::Node *copy = SkipList::makeNode(
                &arena_, key, v->seq, v->entryType(), v->value(),
                list_->randomHeight());
            if (copy == nullptr) {
                // NVM budget exhausted mid-merge. Everything copied
                // so far is durably linked; the caller retries the
                // whole table later and idempotence skips those
                // entries.
                flush_charges();
                return Status::busy("repo: nvm capacity exhausted");
            }
            stats_->storage_bytes_written.fetch_add(
                copy->allocationSize(), std::memory_order_relaxed);
            list_->linkNode(copy, &splice);
            pointer_stores += copy->height;
            for (int level = 0; level < copy->height; level++)
                splice.prev[level] = copy;
        }

        // Reclaim the repository versions the copied-in run shadows;
        // `succ` now sits on the first same-key node older than every
        // copy, so the shadow walk continues seamlessly from the run.
        std::vector<SkipList::Node *> drop;
        for (SkipList::Node *d = succ;
             d != nullptr && d->key() == key; d = d->nextRelaxed(0)) {
            if (shadowed)
                drop.push_back(d);
            if (d->seq <= keep_seq)
                shadowed = true;
        }
        if (drop_notify_) {
            for (SkipList::Node *d : drop)
                drop_notify_(d->entryType(), d->value());
        }
        pointer_stores +=
            unlinkShadowed(list_.get(), key, &splice, drop);
        for (SkipList::Node *d : drop)
            garbage_bytes_ += d->allocationSize();
    }

    if (pointer_stores > 0) {
        device_->chargeWrite(pointer_stores * sizeof(void *));
        stats_->storage_bytes_written.fetch_add(
            pointer_stores * sizeof(void *), std::memory_order_relaxed);
    }
    stats_->lazy_copy_merges.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
}

bool
PmRepository::get(const Slice &key, std::string *value, EntryType *type,
                  uint64_t *seq, bool verify, bool *corrupt) const
{
    if (list_ == nullptr)
        return false;
    device_->chargeRandomReads(
        sim::skipDescentDepth(list_->entryCount()));
    return list_->get(key, value, type, seq, verify, corrupt);
}

std::unique_ptr<lsm::KVIterator>
PmRepository::newIterator() const
{
    if (list_ == nullptr)
        return std::make_unique<EmptyIterator>();
    return std::make_unique<lsm::SkipListIterator>(list_.get());
}

std::unique_ptr<lsm::KVIterator>
PmRepository::newSnapshotIterator(const std::shared_ptr<const void> &pin,
                                  bool verify) const
{
    // No pin needed: pinned versions stay linked in place (lazy-copy
    // merges gate their reclamation on the oldest snapshot bound).
    (void)pin;
    if (list_ == nullptr)
        return std::make_unique<EmptyIterator>();
    return std::make_unique<lsm::SkipListIterator>(list_.get(), verify);
}

Repository::ScrubReport
PmRepository::scrub()
{
    // The repository is one huge skip list without table granularity:
    // quarantining would take the whole store offline, so scrubbing
    // only reports -- reads running with verify_read_checksums answer
    // corruption for the damaged entries themselves.
    ScrubReport report;
    if (list_ == nullptr)
        return report;
    for (const SkipList::Node *n = list_->first(); n != nullptr;
         n = n->next(0)) {
        report.bytes +=
            sizeof(SkipList::Node) + n->key_len + n->value_len;
        if (!n->checksumOk())
            report.corruptions++;
    }
    device_->chargeRead(report.bytes);
    return report;
}

SsdRepository::SsdRepository(const lsm::LsmOptions &options,
                             sim::StorageMedium *medium,
                             StatsCounters *stats,
                             sched::BackgroundScheduler *sched)
    : lsm_(options, medium, stats, "mio-ssd", sched), stats_(stats)
{}

Status
SsdRepository::mergeTable(PMTable *src, uint64_t keep_seq)
{
    // The SSD tier needs no seq gating: a pinned snapshot holds the
    // migrating PMTable itself (migration never mutates its source)
    // and any pinned SSTable version keeps its files alive, so the
    // newest-version collapse in the table writer loses nothing a
    // snapshot can still reach.
    (void)keep_seq;
    lsm::SkipListIterator iter(&src->list());
    Status s = lsm_.flushToL0(&iter);
    if (s.isOk())
        stats_->lazy_copy_merges.fetch_add(1, std::memory_order_relaxed);
    return s;
}

bool
SsdRepository::get(const Slice &key, std::string *value, EntryType *type,
                   uint64_t *seq, bool verify, bool *corrupt) const
{
    (void)verify;  // SSTable blobs carry their own body checksums
    return lsm_.get(key, value, type, seq, corrupt);
}

Repository::ScrubReport
SsdRepository::scrub()
{
    ScrubReport report;
    lsm_.scrubTables(&report.bytes, &report.corruptions,
                     &report.quarantined);
    return report;
}

std::unique_ptr<lsm::KVIterator>
SsdRepository::newIterator() const
{
    return lsm_.newIterator();
}

std::shared_ptr<const void>
SsdRepository::pinVersion() const
{
    return std::make_shared<lsm::LsmTree::VersionPin>(lsm_.pinVersion());
}

std::unique_ptr<lsm::KVIterator>
SsdRepository::newSnapshotIterator(
    const std::shared_ptr<const void> &pin, bool verify) const
{
    (void)verify;  // SSTable blocks carry their own checksums
    if (pin == nullptr)
        return lsm_.newIterator();
    auto files =
        std::static_pointer_cast<const lsm::LsmTree::VersionPin>(pin);
    return lsm_.newIterator(*files);
}

bool
SsdRepository::snapshotCorrupt(const std::shared_ptr<const void> &pin,
                               const Slice &user_key) const
{
    if (pin == nullptr)
        return false;
    auto files =
        std::static_pointer_cast<const lsm::LsmTree::VersionPin>(pin);
    for (const auto &level : *files) {
        for (const auto &f : level) {
            if (!f->quarantined.load(std::memory_order_acquire))
                continue;
            if (user_key.compare(extractUserKey(Slice(f->smallest))) >=
                    0 &&
                user_key.compare(extractUserKey(Slice(f->largest))) <= 0) {
                return true;
            }
        }
    }
    return false;
}

uint64_t
SsdRepository::entryCount() const
{
    return lsm_.versions().totalEntries();
}

} // namespace mio::miodb
