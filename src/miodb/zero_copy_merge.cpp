#include "miodb/zero_copy_merge.h"

#include <cassert>
#include <thread>
#include <vector>

#include "sim/failpoint.h"
#include "miodb/one_piece_flush.h"
#include "miodb/skiplist_merge_util.h"
#include "util/clock.h"

namespace mio::miodb {

namespace {

using Node = SkipList::Node;
using Splice = SkipList::Splice;

/**
 * Core merge loop shared by the fresh and resumed paths.
 * @p pending is a node already detached from the newtable that still
 * must be inserted (the recovered insertion mark), or nullptr.
 * @p keep_seq gates version reclamation: an older version is only
 * unlinked when a newer version with seq <= keep_seq shadows it for
 * every pinned snapshot (kMaxSequence when none are pinned).
 */
bool
mergeLoop(MergeOp *op, sim::NvmDevice *device, StatsCounters *stats,
          const MergeThrottle &throttle, bool resumed, Node *pending,
          uint64_t keep_seq, const DropNotify &drop_notify)
{
    SkipList &src = op->newt->list();
    SkipList &dst = op->oldt->list();

    uint64_t moved = 0;
    size_t pointer_stores = 0;

    // The result's fence is the DRAM union of both input fences minus
    // the nodes this run unlinks -- sound only when this run saw every
    // unlink, i.e. a fresh (not resumed) merge of two fenced tables.
    const std::shared_ptr<const FenceIndex> newt_fence =
        resumed ? nullptr : op->newt->fence();
    const std::shared_ptr<const FenceIndex> oldt_fence =
        resumed ? nullptr : op->oldt->fence();
    std::vector<const Node *> unlinked;
    auto note_dropped = [&](Node *d) {
        unlinked.push_back(d);
        if (drop_notify)
            drop_notify(d->entryType(), d->value());
    };
    auto notify_dropped = [&](const std::vector<Node *> &drop) {
        for (Node *d : drop)
            note_dropped(d);
    };

    auto flush_charges = [&]() {
        if (pointer_stores > 0) {
            device->chargeWrite(pointer_stores * sizeof(void *));
            stats->storage_bytes_written.fetch_add(
                pointer_stores * sizeof(void *),
                std::memory_order_relaxed);
            pointer_stores = 0;
        }
    };

    // The newtable drains in key order, so each descent resumes from
    // the previous one's splice. Its nodes sort below every key still
    // to come, and only nodes at or after that key are linked or
    // unlinked meanwhile, which keeps it a valid finger.
    Splice finger = dst.headSplice();
    auto insert_into_dst = [&](Node *n) {
        int compared = 0;
        Splice splice = finger;
        Node *succ0 = dst.findGreaterOrEqualFrom(n->key(), &splice,
                                                 &compared);
        device->chargeRandomReads(compared);
        finger = splice;
        // Snapshot-kept versions the merge moved earlier may already
        // sit in the destination; descend below them so the run stays
        // in internal-key order (key asc, seq desc).
        bool shadowed = false;
        Node *succ = succ0;
        while (succ != nullptr && succ->key() == n->key() &&
               succ->seq > n->seq) {
            if (succ->seq <= keep_seq)
                shadowed = true;
            for (int level = 0; level < succ->height; level++)
                splice.prev[level] = succ;
            succ = succ->next(0);
        }
        if (succ != nullptr && succ->key() == n->key() &&
            succ->seq == n->seq) {
            // The destination already holds this exact version
            // (possible when a resumed merge re-examines the marked
            // node): nothing to do.
            return;
        }
        if (shadowed) {
            // A newer version visible to the oldest pinned snapshot
            // already landed (stale resume): the node stays detached,
            // its memory reclaimed with the absorbed arenas.
            note_dropped(n);
            return;
        }
        op->relink_seq.fetch_add(1);
        dst.linkNode(n, &splice);
        op->relink_seq.fetch_add(1);
        pointer_stores += n->height;
        // The same-key run now starts at succ0 only when the descent
        // stepped over newer kept versions; otherwise n linked at the
        // run's head.
        Node *first_same = (succ0 != nullptr &&
                            succ0->key() == n->key() &&
                            succ0->seq > n->seq)
                               ? succ0
                               : n;
        auto drop = shadowedVersions(first_same, n->key(), keep_seq);
        notify_dropped(drop);
        pointer_stores += unlinkShadowed(&dst, n->key(), &splice, drop);
    };

    if (pending != nullptr) {
        insert_into_dst(pending);
        op->mark.store(nullptr, std::memory_order_release);
        moved++;
    }

    while (true) {
        Node *n = src.first();
        if (n == nullptr)
            break;

        // All shadowed versions of one key are dropped in the same
        // step (the paper drops N_d5 while processing N_d7): unlink
        // them first, while the newest version is still present, so a
        // concurrent newtable search can never surface a stale
        // version. Versions a pinned snapshot still needs stay linked
        // and flow through the mark protocol as their own steps.
        auto drop = shadowedVersions(n, n->key(), keep_seq);
        if (!drop.empty()) {
            notify_dropped(drop);
            Splice head_splice = src.headSplice();
            pointer_stores +=
                unlinkShadowed(&src, n->key(), &head_splice, drop);
        }

        // Publish the node in the insertion mark, then detach it from
        // the newtable (top-down), then link it into the oldtable
        // (bottom-up). Readers always find it in one of the three.
        op->mark.store(n, std::memory_order_release);
        src.unlinkFirst();
        pointer_stores += n->height;
        // The node now lives ONLY in the insertion mark; recovery
        // must re-insert it from there.
        MIO_FAILPOINT("zcm.detached");

        if (throttle && !throttle(moved)) {
            // Simulated crash at the protocol's most delicate point:
            // the node lives only in the insertion mark. Recovery
            // (resumeZeroCopyMerge) re-inserts it from the mark.
            flush_charges();
            return false;
        }

        insert_into_dst(n);
        // Linked into the oldtable but the mark still points at it; a
        // resumed merge re-examines the node and must find it idempotent.
        MIO_FAILPOINT("zcm.relinked");
        op->mark.store(nullptr, std::memory_order_release);
        moved++;
    }

    flush_charges();
    op->oldt->absorb(*op->newt);
    // Never leave the pre-merge fence on the relinked result: without
    // both inputs' fences it gets none (the caller may walk for one).
    op->oldt->setFence(
        newt_fence != nullptr && oldt_fence != nullptr
            ? FenceIndex::merge(*newt_fence, *oldt_fence,
                                std::move(unlinked))
            : nullptr);
    op->done.store(true, std::memory_order_release);
    stats->zero_copy_merges.fetch_add(1, std::memory_order_relaxed);
    return true;
}

} // namespace

bool
zeroCopyMerge(MergeOp *op, sim::NvmDevice *device, StatsCounters *stats,
              const MergeThrottle &throttle, uint64_t keep_seq,
              const DropNotify &drop_notify)
{
    ScopedTimer timer(&stats->compaction_ns);
    return mergeLoop(op, device, stats, throttle, /*resumed=*/false,
                     nullptr, keep_seq, drop_notify);
}

bool
resumeZeroCopyMerge(MergeOp *op, sim::NvmDevice *device,
                    StatsCounters *stats, const MergeThrottle &throttle,
                    uint64_t keep_seq, const DropNotify &drop_notify)
{
    ScopedTimer timer(&stats->compaction_ns);
    Node *pending = op->mark.load(std::memory_order_acquire);
    return mergeLoop(op, device, stats, throttle, /*resumed=*/true,
                     pending, keep_seq, drop_notify);
}

bool
mergeAwareGet(const MergeOp *op, const Slice &key, std::string *value,
              EntryType *type, uint64_t *seq, bool verify,
              bool *corrupt)
{
    // The newest version of the key is always in at least one of the
    // newtable, the insertion mark and the oldtable, probed in that
    // order. The first answer is not final: versions a pinned snapshot
    // keeps travel through the mark as steps of their own, so the
    // newtable or the mark can hold an OLDER version while the newest
    // already sits in the oldtable. Keep the newest of all three.
    bool found = false;
    uint64_t best_seq = 0;
    std::string probe_value;
    EntryType probe_type = EntryType::kValue;
    uint64_t probe_seq = 0;
    auto keep = [&] {
        if (found && probe_seq <= best_seq)
            return;
        found = true;
        best_seq = probe_seq;
        *type = probe_type;
        value->swap(probe_value);
    };
    // The newtable descent must not overlap a relink (see relink_seq).
    for (;;) {
        const uint64_t relink = op->relink_seq.load();
        if (relink % 2 != 0) {
            std::this_thread::yield();
            continue;
        }
        found = false;
        best_seq = 0;
        if (op->newt->list().get(key, &probe_value, &probe_type,
                                 &probe_seq, verify, corrupt)) {
            keep();
        }
        if (op->relink_seq.load() == relink)
            break;
    }
    if (corrupt != nullptr && *corrupt)
        return false;
    Node *marked = op->mark.load(std::memory_order_acquire);
    if (marked != nullptr && marked->key() == key) {
        if (verify && !marked->checksumOk()) {
            if (corrupt != nullptr)
                *corrupt = true;
            return false;
        }
        probe_type = marked->entryType();
        probe_seq = marked->seq;
        probe_value.clear();
        if (probe_type != EntryType::kDeletion) {
            probe_value.assign(marked->value().data(),
                               marked->value().size());
        }
        keep();
    }
    if (op->oldt->list().get(key, &probe_value, &probe_type, &probe_seq,
                             verify, corrupt)) {
        keep();
    }
    if (corrupt != nullptr && *corrupt)
        return false;
    if (found && seq != nullptr)
        *seq = best_seq;
    return found;
}

std::shared_ptr<PMTable>
copyingMerge(const std::shared_ptr<PMTable> &newt,
             const std::shared_ptr<PMTable> &oldt,
             sim::NvmDevice *device, StatsCounters *stats,
             uint64_t table_id, uint64_t keep_seq,
             const DropNotify &drop_notify)
{
    ScopedTimer timer(&stats->compaction_ns);

    // Random node heights differ from the sources', so leave headroom.
    size_t capacity = newt->arenaBytes() + oldt->arenaBytes();
    capacity += capacity / 4 + 4096;
    auto arena = std::make_shared<Arena>(capacity, device,
                                         /*charge_allocations=*/true);
    if (!arena->valid())
        return nullptr;  // NVM budget denied; caller degrades
    SkipList out(arena.get(), table_id * 131 + 3);

    SkipList::Iterator a(&newt->list());
    SkipList::Iterator b(&oldt->list());
    a.seekToFirst();
    b.seekToFirst();

    FenceIndex::Builder fence;
    std::string last_key;
    bool has_last = false;
    bool last_shadowed = false;
    auto emit = [&](const Slice &key, uint64_t seq, EntryType type,
                    const Slice &val) {
        if (has_last && key == Slice(last_key)) {
            if (last_shadowed) {
                // Older duplicate no pinned snapshot needs.
                if (drop_notify)
                    drop_notify(type, val);
                return;
            }
        } else {
            last_shadowed = false;
        }
        const Node *n = out.insert(key, seq, type, val);
        assert(n != nullptr && "copying-merge arena sized for both inputs");
        fence.add(key, seq, n);
        if (seq <= keep_seq)
            last_shadowed = true;
        last_key = key.toString();
        has_last = true;
    };
    while (a.valid() || b.valid()) {
        bool take_a;
        if (!a.valid()) {
            take_a = false;
        } else if (!b.valid()) {
            take_a = true;
        } else {
            take_a = SkipList::entryBefore(a.key(), a.seq(), b.key(),
                                           b.seq());
        }
        if (take_a) {
            emit(a.key(), a.seq(), a.entryType(), a.value());
            a.next();
        } else {
            emit(b.key(), b.seq(), b.entryType(), b.value());
            b.next();
        }
    }
    stats->storage_bytes_written.fetch_add(arena->used(),
                                           std::memory_order_relaxed);

    BloomFilter bloom = mergeTableBlooms(newt->bloom(), oldt->bloom(), out);
    std::string min_key = Slice(newt->minKey()).compare(
                              Slice(oldt->minKey())) < 0
                              ? newt->minKey()
                              : oldt->minKey();
    std::string max_key = Slice(newt->maxKey()).compare(
                              Slice(oldt->maxKey())) > 0
                              ? newt->maxKey()
                              : oldt->maxKey();
    auto result = std::make_shared<PMTable>(std::move(arena), out.head(),
                                            out.entryCount(),
                                            std::move(bloom), table_id,
                                            std::move(min_key),
                                            std::move(max_key));
    result->setFence(fence.finish());
    stats->compaction_count.fetch_add(1, std::memory_order_relaxed);
    return result;
}

} // namespace mio::miodb
