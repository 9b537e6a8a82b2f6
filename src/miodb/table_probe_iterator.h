/**
 * @file
 * TableProbeIterator: an internal-key cursor anchored on one pinned
 * PMTable that stays correct while zero-copy merges relink the
 * table's nodes underneath it.
 *
 * A plain skip-list cursor breaks in two ways once its table joins a
 * merge: as the NEWtable, nodes are detached out from under it (and
 * later rewired into the destination chain), so a stale cursor can
 * skip or double-visit entries; as the OLDtable, concurrently linked
 * nodes may land behind the cursor's position and be missed. This
 * iterator therefore remembers only its logical position -- the last
 * (user key, seq) it yielded -- and re-resolves every advance with a
 * successor probe that runs the paper's three-step read protocol
 * (newtable, insertion mark, oldtable) through the table's registered
 * MergeOp chain (PMTable::activeMerge). A table fully absorbed into a
 * merge result keeps a link to it (PMTable::absorbedInto), so a
 * cursor pinning it chases the entries into the result.
 *
 * When no merge has ever touched the anchor, a double epoch check
 * (PMTable::mergeEpoch) keeps the advance a single next-pointer step,
 * so short scans pay nothing for the machinery.
 */
#ifndef MIO_MIODB_TABLE_PROBE_ITERATOR_H_
#define MIO_MIODB_TABLE_PROBE_ITERATOR_H_

#include <memory>
#include <string>
#include <thread>

#include "lsm/iterator.h"
#include "miodb/pmtable.h"
#include "sstable/internal_key.h"

namespace mio::miodb {

class TableProbeIterator : public lsm::KVIterator
{
  public:
    /** @param verify check per-entry checksums on access (entryOk). */
    explicit TableProbeIterator(std::shared_ptr<PMTable> table,
                                bool verify = false)
        : table_(std::move(table)), verify_(verify)
    {}

    bool valid() const override { return node_ != nullptr; }

    void
    seekToFirst() override
    {
        // (empty key, max seq, inclusive) admits every entry.
        position(probeChain(table_.get(), Slice(), kMaxSequence,
                            /*inclusive=*/true));
        refreshCache();
    }

    void
    seek(const Slice &internal_key) override
    {
        ParsedInternalKey parsed;
        if (!parseInternalKey(internal_key, &parsed)) {
            seekToFirst();
            return;
        }
        position(probeChain(table_.get(), parsed.user_key, parsed.seq,
                            /*inclusive=*/true));
        refreshCache();
    }

    void
    next() override
    {
        // Fast path: the last probe saw no merge registered on the
        // anchor; if the registration epoch is still unchanged around
        // a plain pointer step, no node can have moved meanwhile (and
        // the cache stays valid -- no locks taken on this path).
        if (node_ != nullptr && cached_plain_) {
            uint64_t e = table_->mergeEpoch();
            if (e == cached_epoch_) {
                const SkipList::Node *n = node_->next(0);
                if (table_->mergeEpoch() == e) {
                    position(n);
                    return;
                }
            }
        }
        position(probeChain(table_.get(), Slice(pos_key_), pos_seq_,
                            /*inclusive=*/false));
        refreshCache();
    }

    Slice key() const override { return Slice(key_buf_); }
    Slice value() const override { return node_->value(); }
    bool
    entryOk() const override
    {
        return !verify_ || node_ == nullptr || node_->checksumOk();
    }

  private:
    using Node = SkipList::Node;

    /** Does (node) sort at/after target (k, seq) in internal order? */
    static bool
    qualifies(const Node *n, const Slice &k, uint64_t seq,
              bool inclusive)
    {
        int r = n->key().compare(k);
        if (r != 0)
            return r > 0;
        return inclusive ? n->seq <= seq : n->seq < seq;
    }

    /** a strictly before b in internal order (b may be nullptr). */
    static bool
    before(const Node *a, const Node *b)
    {
        if (b == nullptr)
            return true;
        int r = a->key().compare(b->key());
        if (r != 0)
            return r < 0;
        return a->seq > b->seq;
    }

    /** First entry of @p list at/after (k, seq). */
    static const Node *
    listLowerBound(const SkipList &list, const Slice &k, uint64_t seq,
                   bool inclusive)
    {
        SkipList::Iterator it(&list);
        if (k.empty())
            it.seekToFirst();
        else
            it.seek(k);
        while (it.valid() && it.key() == k &&
               (inclusive ? it.seq() > seq : it.seq() >= seq)) {
            it.next();
        }
        return it.node();
    }

    /**
     * Successor probe through @p t's merge chain. Read order within
     * an active merge is the paper's: newtable list, then the
     * insertion mark, then the oldtable -- a node in transit is
     * always visible through at least one of the three. A change of
     * the registration epoch during the probe retries it on the
     * fresh state (a merge retiring or starting mid-probe).
     */
    const Node *
    probeChain(const PMTable *t, const Slice &k, uint64_t seq,
               bool inclusive)
    {
        for (;;) {
            uint64_t e1 = t->mergeEpoch();
            std::shared_ptr<PMTable> into = t->absorbedInto();
            std::shared_ptr<MergeOp> op = t->activeMerge();
            const Node *best;
            if (into != nullptr) {
                // Fully absorbed: everything lives in the result.
                best = probeChain(into.get(), k, seq, inclusive);
            } else if (op != nullptr && op->newt.get() == t) {
                // The newtable walk must not overlap a relink (see
                // MergeOp::relink_seq). Once the op is done the
                // newtable is empty and the oldtable alone answers.
                const uint64_t relink = op->relink_seq.load();
                if (relink % 2 != 0) {
                    std::this_thread::yield();
                    continue;
                }
                best = listLowerBound(t->list(), k, seq, inclusive);
                if (op->relink_seq.load() != relink)
                    continue;
                const Node *m = op->mark.load(std::memory_order_acquire);
                if (m != nullptr && qualifies(m, k, seq, inclusive) &&
                    before(m, best)) {
                    best = m;
                }
                const Node *o =
                    probeChain(op->oldt.get(), k, seq, inclusive);
                if (o != nullptr && before(o, best))
                    best = o;
            } else {
                // No merge, or this table is the merge DESTINATION:
                // its own list is complete for its share (in-transit
                // newtable nodes are the newtable cursor's job).
                best = listLowerBound(t->list(), k, seq, inclusive);
            }
            if (t->mergeEpoch() == e1)
                return best;
        }
    }

    void
    position(const Node *n)
    {
        node_ = n;
        key_buf_.clear();
        if (n != nullptr) {
            appendInternalKey(&key_buf_, n->key(), n->seq,
                              n->entryType());
            pos_key_.assign(n->key().data(), n->key().size());
            pos_seq_ = n->seq;
        }
    }

    /** Re-arm the lock-free fast path: a plain step is legal while no
     *  merge is registered, the table was never absorbed, and the
     *  epoch stays put. */
    void
    refreshCache()
    {
        uint64_t ea = table_->mergeEpoch();
        cached_plain_ = table_->activeMerge() == nullptr &&
                        table_->absorbedInto() == nullptr &&
                        table_->mergeEpoch() == ea;
        cached_epoch_ = ea;
    }

    std::shared_ptr<PMTable> table_;
    bool verify_;
    const Node *node_ = nullptr;
    std::string key_buf_;
    std::string pos_key_;
    uint64_t pos_seq_ = 0;
    bool cached_plain_ = false;
    uint64_t cached_epoch_ = 0;
};

} // namespace mio::miodb

#endif // MIO_MIODB_TABLE_PROBE_ITERATOR_H_
